"""Exact worst-case mid-tail envelopes of weighted Rademacher sums.

The package computes, in exact arithmetic, the largest mid-tail
probability P(S > t) + P(S = t)/2 achievable by a weighted sum of
independent +-1 signs under the unit L2 weight constraint, together
with envelope quantiles, nonparametric critical tables for the
self-standardised Student-type statistic, and a brute-force oracle that
re-derives every claim from explicit sign-pattern enumeration.
"""

__version__ = "0.1.0"

from .errors import DomainError, EmptyFiberError, ParseError, SizeLimitError
from .exactnum import (
    Dyadic,
    LatticeValue,
    Ordering,
    Ratio,
    Threshold,
    cmp_lattice_lattice,
    cmp_lattice_threshold,
    cmp_threshold_threshold,
    parse_ratio,
)
from .binomdist import AtomTable, mid_quantile, mid_tail, pmf, strict_tail, weak_tail
from .envelope import (
    ZUBKOV_SEROV_CLOSED,
    HARD_CAP_HIT,
    EnvelopeResult,
    QuantileResult,
    TruncationPolicy,
    atom_grid,
    envelope_mid_tail,
    k_min,
    quantile_finite,
    quantile_universal,
    universal_envelope,
)
from .normal import erfc, gaussian_upper_tail, hoeffding_bound
from .oracle import (
    ExactDist,
    Fiber,
    Lcg,
    PairProbe,
    ProbeReport,
    SearchReport,
    WeightVector,
    enumerate_dist,
    dist_by_pattern_walk,
    equalisation_probe,
    fiber,
    normalized_mid_quantile,
    normalized_mid_tail,
    random_maximizer_search,
)
from .statbridge import (
    ComparisonRow,
    CriticalRow,
    CriticalTable,
    comparison_table,
    critical_table,
    figure_data,
    s_to_t,
    t_to_s,
)

__all__ = [name for name in dir() if not name.startswith("_")]
