"""Exact worst-case mid-tail envelopes of weighted Rademacher sums.

The package computes, in exact arithmetic, the largest mid-tail
probability P(S > t) + P(S = t)/2 achievable by a weighted sum of
independent +-1 signs under the unit L2 weight constraint, together
with envelope quantiles, nonparametric critical tables for the
self-standardised Student-type statistic, and a brute-force oracle that
re-derives every claim from explicit sign-pattern enumeration.

The namespace is lazy (PEP 562): ``rademax.X`` and ``from rademax import
X`` import X's module on first use, so ``import rademax.cli`` loads only
the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Public names by defining module; the module names are public too.
_EXPORTS = {
    "errors": ("DomainError", "EmptyFiberError", "ParseError", "SizeLimitError"),
    "exactnum": ("Dyadic", "LatticeValue", "Ordering", "Ratio", "Threshold",
                 "cmp_lattice_lattice", "cmp_lattice_threshold", "parse_ratio"),
    "binomdist": ("AtomTable", "mid_quantile", "mid_tail", "pmf", "strict_tail",
                  "weak_tail"),
    "envelope": ("ZUBKOV_SEROV_CLOSED", "HARD_CAP_HIT", "EnvelopeResult",
                 "QuantileResult", "TruncationPolicy", "atom_grid",
                 "envelope_mid_tail", "k_min", "quantile_finite",
                 "quantile_universal", "universal_envelope"),
    "normal": ("erfc", "gaussian_upper_tail", "hoeffding_bound"),
    "oracle": ("ExactDist", "Fiber", "Lcg", "PairProbe", "ProbeReport",
               "SearchReport", "WeightVector", "enumerate_dist",
               "dist_by_pattern_walk", "equalisation_probe", "fiber",
               "normalized_mid_quantile", "normalized_mid_tail",
               "random_maximizer_search"),
    "statbridge": ("ComparisonRow", "CriticalRow", "CriticalTable",
                   "comparison_table", "critical_table", "figure_data",
                   "s_to_t", "t_to_s"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
