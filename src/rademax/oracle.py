"""Ground-truth brute force for arbitrary weight vectors.

For a nonnegative rational weight vector w of length n, all 2^n sign
patterns are equally likely, so the law of sum(w_i * e_i) follows from
counting patterns per achieved value.  Everything lives on one integer
lattice: with L the common denominator of the weights, the count table
(patterns per integer sum) of the integer weights w_i = L*w_i is the
coefficient list of prod(1 + z^{w_i}), slot s holding the sum 2s - W for
W = sum w_i.  ``ExactDist`` keeps those integer sums, their counts and L.
No floats appear anywhere, and a ``Fraction`` is built only for an atom
that is returned.

``enumerate_dist`` builds the table by Kronecker substitution (Schoenhage
1982; Harvey, J. Symbolic Comput. 44, 2009): it evaluates the product at
z = 2^b as one Python int, with n shift-adds ``P += P << (b*w_i)``, and
reads the W + 1 slots back in one ``array`` conversion.  A slot is one
32-bit array item, and counts are at most 2^n, so no count carries into
the next slot while n < 32 (``MAX_COORDINATES`` is 24; a guard rejects
n >= 32).  A dense table costs W + 1 slots whatever the number of
distinct sums, so the packed route is taken only when W + 1 <= 2^16, which
covers integer weights up to 100 at n <= 24 (the benchmark's oracle inputs
have W <= 1600).  A sparse lattice (weights 1 and 10^12, rationals with a
large common denominator, or 23 ones and one weight of 6.7e7) keeps the
dict convolution, whose cost follows the number of distinct sums.

The unit-sphere normalisation is never imposed on stored weights:
comparisons of an atom s against t * ||w|| square both sides, keeping
everything rational.  Scaling w by a positive rational therefore leaves
every normalised quantity unchanged.

``equalisation_probe`` checks the computable first-order content of the
equal-weights optimality argument: pick coordinates i, j with
w_i > w_j > 0, rotate weight between them in the direction that raises
the sum exactly on patterns with e_j = +1 (per-pattern derivative
w_i*e_j - w_j*e_i), and test whether the upper median of these slopes
over the fiber at a positive atom is positive.  The slope depends only
on (e_i, e_j), so each pair's slope multiset is four counts of the other
n-2 coordinates, read from the count table by exact division by
(z^{L w_i} + z^{-L w_i}) and (z^{L w_j} + z^{-L w_j}).  On the packed
route the first division, which leaves one coordinate out, is done on the
packed product P itself: with X = 2^(32 b), the quotient Q = P / (1 + X)
has W - b + 1 slots, so it is P * (1 - X + X^2 - ...) modulo 2^N for
N = 32 (W - b + 1), a series built by doubling its length with one
shift-add per step.  Sparse lattices divide their dict tables instead.

``fiber`` and ``dist_by_pattern_walk`` walk the 2^n patterns explicitly.
They are the slow independent routes the test suite compares against.

Weights are ``Fraction`` objects, built once per vector, and the oracle's
arithmetic runs on their integer lattice: sign checks read numerators,
and the norm in a normalised comparison is the integer ||L w||^2.

Randomised searches use a self-contained 64-bit linear congruential
generator (documented below), so reports are reproducible bit-for-bit
across platforms and Python versions.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import binomdist
from .envelope import envelope_mid_tail
from .errors import DomainError, EmptyFiberError, SizeLimitError
from .exactnum import Dyadic, Threshold

MAX_COORDINATES = 24

# A packed slot is one unsigned array item of 32 bits (the C unsigned int)
_SLOT_CODE = "I"
_SLOT_BITS = 8 * array(_SLOT_CODE).itemsize
# The packed route's largest table, in slots (W + 1)
_PACKED_SLOTS = 1 << 16

_SIGN_CHOICES = (1, -1)  # +1 first: patterns enumerate in lexicographic order


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative rational weights, not all zero.

    The constructor also puts them on their common-denominator lattice,
    once per vector: w_i = _iw[i] / _denom.  Those two fields take no part
    in equality, hashing or the repr.
    """

    w: tuple[Fraction, ...]
    _iw: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _denom: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = tuple(map(Fraction, self.w))
        if not w:
            raise DomainError("weight vector must have at least one entry")
        if any(x.numerator < 0 for x in w):
            raise DomainError("weights must be >= 0")
        if not any(x.numerator for x in w):
            raise DomainError("weight vector must have a positive entry")
        denom = math.lcm(*(x.denominator for x in w))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "_iw", tuple(x.numerator * (denom // x.denominator) for x in w))
        object.__setattr__(self, "_denom", denom)

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def norm_sq(self) -> Fraction:
        return Fraction(_square_sum(self._iw), self._denom * self._denom)


@dataclass(frozen=True)
class ExactDist:
    """Exact law of the weighted sign sum on the lattice (1/denom)Z.

    ``sums`` holds the atoms times ``denom`` (the weights' common
    denominator), strictly increasing; ``counts`` holds the sign patterns
    per atom, so an atom's mass is its count / 2^n.
    """

    n: int
    sums: tuple[int, ...]
    counts: tuple[int, ...]
    denom: int = 1

    def __post_init__(self) -> None:
        sums, counts = self.sums, self.counts
        if self.denom < 1:
            raise ValueError("the lattice denominator must be >= 1")
        if len(sums) != len(counts):
            raise ValueError("need one pattern count per atom")
        if sum(counts) != 1 << self.n:
            raise ValueError("pattern counts must sum to 2^n")
        if not all(map(operator.lt, sums, sums[1:])):
            raise ValueError("atom values must be strictly increasing")
        if list(map(operator.neg, reversed(sums))) != list(sums) \
                or counts != counts[::-1]:
            raise ValueError("distribution must be symmetric about 0")

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The atoms, ascending."""
        return tuple(Fraction(s, self.denom) for s in self.sums)

    def prob(self, x: Fraction) -> Dyadic:
        s = Fraction(x) * self.denom
        i = bisect_left(self.sums, s)
        if i < len(self.sums) and self.sums[i] == s:
            return Dyadic(self.counts[i], self.n)
        return Dyadic(0, 0)

    def atoms(self) -> tuple[tuple[Fraction, Dyadic], ...]:
        return tuple((Fraction(s, self.denom), Dyadic(c, self.n))
                     for s, c in zip(self.sums, self.counts))


@dataclass(frozen=True)
class Fiber:
    """All sign patterns achieving a given atom value, in lexicographic order."""

    x: Fraction
    configs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PairProbe:
    """Slope statistics for one rotated coordinate pair (1-based, w_i > w_j).

    ``direction`` is the rotation sign that raises the fiber's upper
    median at first order; the flat slope fields describe that direction.
    ``normalized_verdict`` records the outcome for the fixed direction in
    which slopes are positive exactly on patterns with e_j = +1 (slope
    w_i e_j - w_j e_i); its failure on a concrete fiber is a research-
    relevant finding even though the other direction then succeeds.
    """

    i: int
    j: int
    direction: str
    slopes: tuple[tuple[Fraction, int], ...]  # sorted (value, multiplicity)
    n_pos: int
    n_neg: int
    n_zero: int
    upper_median_slope: Fraction
    verdict: bool
    normalized_median: Fraction
    normalized_verdict: bool


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the fiber-slope probe at a positive atom.

    ``verdict`` certifies the first-order content of the equalisation
    claim for the selected pair: some rotation direction raises the
    fiber's upper median.  Selection prefers the first pair (index
    order) where the e_j-aligned normalized direction already works,
    then the first pair at all; ``all_pairs`` keeps every summary.
    ``applicable`` is False when every positive coordinate is equal,
    which the claim does not cover (distinct from a failed verdict).
    """

    applicable: bool
    x: Fraction
    fiber_size: int = 0
    pair: tuple[int, int] | None = None
    direction: str = "-theta"
    slopes: tuple[tuple[Fraction, int], ...] = ()
    n_pos: int = 0
    n_neg: int = 0
    n_zero: int = 0
    upper_median_slope: Fraction | None = None
    verdict: bool = False
    normalized_verdict: bool = False
    all_pairs: tuple[PairProbe, ...] = ()
    reason: str | None = None


@dataclass(frozen=True)
class SearchReport:
    """Best normalised mid-tail found by seeded random weight sampling."""

    n: int
    t: Threshold
    trials: int
    seed: int
    best_value: Dyadic
    best_weights: tuple[int, ...]
    envelope_value: Dyadic
    gap: Dyadic
    violations: tuple[tuple[tuple[int, ...], Dyadic], ...]


class Lcg:
    """64-bit linear congruential generator (Knuth's MMIX multiplier).

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    seeded with one burn-in step from the user seed; draws take the top
    31 bits and reduce modulo the range size.  Entirely integer-based,
    hence identical on every platform.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed * self.MULT + self.INC) & self.MASK

    def next_raw(self) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state >> 33

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo reduction, documented)."""
        return lo + self.next_raw() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# Distribution enumeration
# ---------------------------------------------------------------------------

def require_size(n: int) -> None:
    """Raise ``SizeLimitError`` when n exceeds the brute-force guard."""
    if n > MAX_COORDINATES:
        raise SizeLimitError(f"n={n} exceeds the brute-force guard "
                             f"({MAX_COORDINATES} coordinates)")


def _square_sum(iw: tuple[int, ...]) -> int:
    """||L w||^2 for the integer weights L w."""
    return sum(map(operator.mul, iw, iw))


def _scaled_counts(iw: tuple[int, ...]) -> dict[int, int]:
    """Counts of patterns per integer sum, by exact convolution."""
    counts = {0: 1}
    for wi in iw:
        nxt = {s + wi: c for s, c in counts.items()}
        for s, c in counts.items():
            nxt[s - wi] = nxt.get(s - wi, 0) + c
        counts = nxt
    return counts


def _sorted_table(counts: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sums, counts) of a count dict, by increasing sum."""
    sums = sorted(counts)
    return tuple(sums), tuple(counts[s] for s in sums)


def _is_dense(total: int) -> bool:
    """Whether a table of total + 1 slots takes the packed route."""
    return total < _PACKED_SLOTS


def _packed_product(iw: tuple[int, ...]) -> int:
    """prod(1 + z^{w_i}) at z = 2^32: slot s counts the patterns with sum 2s - W."""
    if len(iw) >= _SLOT_BITS:  # a count of 2^n needs n + 1 bits
        raise SizeLimitError(f"n={len(iw)} coordinates overflow a "
                             f"{_SLOT_BITS}-bit packed slot")
    packed = 1
    for wi in iw:
        packed += packed << (_SLOT_BITS * wi)
    return packed


def _unpack(packed: int, size: int) -> array:
    """The first ``size`` slots of a packed table, one array item each."""
    slots = array(_SLOT_CODE, packed.to_bytes(_SLOT_BITS // 8 * size, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _packed_table(iw: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sums, counts) of the dense route, unpacked from ``_packed_product``."""
    total = sum(iw)
    slots = _unpack(_packed_product(iw), total + 1)
    return (tuple(itertools.compress(range(-total, total + 1, 2), slots)),
            tuple(filter(None, slots)))


def enumerate_dist(w: WeightVector) -> ExactDist:
    """Exact law of the weighted sign sum over all 2^n equiprobable patterns.

    Tables of at most 2^16 slots are packed; larger ones, which only sparse
    lattices need, take the dict convolution.
    """
    require_size(w.n)
    iw, denom = w._iw, w._denom
    if _is_dense(sum(iw)):
        table = _packed_table(iw)
    else:
        table = _sorted_table(_scaled_counts(iw))
    return ExactDist(w.n, *table, denom)


def dist_by_pattern_walk(w: WeightVector) -> ExactDist:
    """Same law via the explicit 2^n pattern walk (slow, independent route)."""
    require_size(w.n)
    iw, denom = w._iw, w._denom
    counts = Counter(map(sum, itertools.product(*((wi, -wi) for wi in iw))))
    return ExactDist(w.n, *_sorted_table(counts), denom)


# ---------------------------------------------------------------------------
# Normalised tail functionals
# ---------------------------------------------------------------------------

def _cmp_scaled_atom(s: int, t: Threshold, w2_scaled: int) -> int:
    """Sign of s/sqrt(w2_scaled) - t, all integer arithmetic."""
    ssign = (s > 0) - (s < 0)
    if ssign != t.sign:
        return 1 if ssign > t.sign else -1
    if ssign == 0:
        return 0
    square_cmp = s * s * t.sq.denominator - t.sq.numerator * w2_scaled
    square_sign = (square_cmp > 0) - (square_cmp < 0)
    return square_sign if ssign > 0 else -square_sign


def normalized_mid_tail(w: WeightVector, t: Threshold,
                        dist: ExactDist | None = None) -> Dyadic:
    """Mid-tail of the sum normalised by ||w||: P(S > t||w||) + P(S = t||w||)/2.

    ``dist`` may carry a precomputed ``enumerate_dist(w)`` to amortise
    repeated thresholds against one weight vector.  Its sums are atoms
    times L, so they are compared against t * ||L w||.
    """
    require_size(w.n)
    if dist is None:
        dist = enumerate_dist(w)
    w2_scaled = _square_sum(w._iw)

    def side(s: int) -> int:
        return _cmp_scaled_atom(s, t, w2_scaled)

    first = bisect_left(dist.sums, 0, key=side)  # first atom >= t||w||
    on_t = first < len(dist.sums) and side(dist.sums[first]) == 0
    boundary = dist.counts[first] if on_t else 0
    strict = sum(dist.counts[first:]) - boundary
    return Dyadic(2 * strict + boundary, w.n + 1)


def normalized_mid_quantile(w: WeightVector, alpha: Fraction,
                            dist: ExactDist | None = None) -> Threshold:
    """Supremum of thresholds whose normalised mid-tail stays >= alpha.

    Same convention as ``binomdist.mid_quantile``, sup{t : mid-tail >=
    alpha}, not the inf{t : envelope(t) <= alpha} of the envelope
    quantiles: the largest normalised atom s/||w|| with P(S >= s) >= alpha;
    its square is the rational s^2 / sum(w^2).
    """
    require_size(w.n)
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    if dist is None:
        dist = enumerate_dist(w)
    target = alpha.numerator * (1 << w.n)
    scale = alpha.denominator
    cum = 0
    for s, c in zip(reversed(dist.sums), reversed(dist.counts)):
        cum += c
        if cum * scale >= target:
            if s == 0:
                return Threshold.zero()
            w2_scaled = _square_sum(w._iw)
            return Threshold.from_square((s > 0) - (s < 0), Fraction(s * s, w2_scaled))
    raise AssertionError("normalized_mid_quantile failed to terminate")


# ---------------------------------------------------------------------------
# Fibers and the equalisation probe
# ---------------------------------------------------------------------------

def fiber(w: WeightVector, x: Fraction) -> Fiber:
    """All sign patterns with sum(w_i e_i) == x, lexicographic (+1 before -1).

    This is the explicit 2^n walk; ``equalisation_probe`` never calls it.
    """
    require_size(w.n)
    x = Fraction(x)
    iw, denom = w._iw, w._denom
    target = x * denom
    if target.denominator != 1:
        raise EmptyFiberError(f"{x} is not an atom of the distribution")
    target = target.numerator
    configs = tuple(
        eps for eps in itertools.product(_SIGN_CHOICES, repeat=w.n)
        if sum(e * wi for e, wi in zip(eps, iw)) == target
    )
    if not configs:
        raise EmptyFiberError(f"{x} is not an atom of the distribution")
    return Fiber(x, configs)


def _divide_out(desc: list[tuple[int, int]], a: int) -> dict[int, int]:
    """Exact quotient of a count table by (z^a + z^-a), a > 0.

    ``desc`` lists the table's (sum, count) items in descending order.  The
    quotient q solves table[s] = q[s - a] + q[s + a], so from the top down
    q[s - a] = table[s] - q[s + a].
    """
    q: dict[int, int] = {}
    for s, c in desc:
        c -= q.get(s + a, 0)
        if c:
            q[s - a] = c
    return q


def _packed_quotient(packed: int, total: int, b: int) -> int:
    """Exact quotient of a packed table with sums up to ``total`` by
    (1 + z^b), 0 < b <= total, as a packed table of total - b + 1 slots.

    With X = 2^(32 b), P (1 - X + X^2 - ... -/+ X^(M-1)) = Q (1 -/+ X^M),
    so P times that series is Q modulo 2^N, N = 32 (total - b + 1), once
    X^M >= 2^N, because Q < 2^N.  The series doubles its length M with
    each shift-add: g (1 + X^M) is the series of length 2M.
    """
    bits = _SLOT_BITS * (total - b + 1)
    mask = (1 << bits) - 1
    shift = _SLOT_BITS * b
    g = (packed - (packed << shift)) & mask  # M = 2
    span = 2 * shift  # 32 b M
    while span < bits:
        g = (g + (g << span)) & mask
        span *= 2
    return g


class _SlotView:
    """A dense count table read like a dict: ``get(sum, 0)``.

    Slot m holds the patterns with sum 2m - top, so a sum of the other
    parity, or beyond +-top, has no patterns.
    """

    __slots__ = ("slots", "top")

    def __init__(self, slots: array, top: int):
        self.slots = slots
        self.top = top

    def __len__(self) -> int:
        return len(self.slots)

    def get(self, s: int, default: int = 0) -> int:
        m = s + self.top
        if m & 1 or not 0 <= m <= 2 * self.top:
            return default
        return self.slots[m >> 1]


def _quotient_at(table: dict[int, int] | _SlotView, top: int, a: int, y: int) -> int:
    """Count at y of the quotient of a symmetric count table by (z^a + z^-a).

    ``top`` bounds the table's sums.  The quotient is symmetric too, and
    from the top down it reads q[|y|] = table[|y|+a] - table[|y|+3a] + ...
    That chain steps over lattice points, not table entries, so when it is
    longer than the table the whole quotient is divided out instead.  A
    dense table has a slot per lattice point, so that happens only to dicts.
    """
    y = abs(y)
    if (top - y) // (2 * a) >= len(table):
        return _divide_out(sorted(table.items(), reverse=True), a).get(y, 0)
    return sum(table.get(s, 0) - table.get(s + 2 * a, 0)
               for s in range(y + a, top + 1, 4 * a))


def _sign_counts(rest: dict[int, int] | _SlotView, top: int, x: int,
                 big: int, small: int) -> dict[tuple[int, int], int]:
    """Fiber patterns at x per sign pair (e_i, e_j), for lattice weights
    w_i = big > w_j = small.

    ``rest`` is the count table without coordinate j, its sums within
    [-top, top].  Dividing it by (z^big + z^-big) leaves r, the table of
    the other n-2 coordinates, and the count for (e_i, e_j) is
    r[x - e_i big - e_j small].
    """
    count = {}
    for e_j in (1, -1):
        y = x - e_j * small
        # r[y - big] (e_i = +1) and r[y + big] (e_i = -1) add up to rest[y];
        # the chain is shorter for the one farther from 0
        e_far = 1 if y <= 0 else -1
        far = _quotient_at(rest, top, big, y - e_far * big)
        count[e_far, e_j] = far
        count[-e_far, e_j] = rest.get(y, 0) - far
    return count


def _upper_median(slopes: tuple[tuple[int, int], ...], size: int) -> int:
    """Element at 0-based position size // 2 of the expanded multiset."""
    rank = size // 2
    for value, count in slopes:
        if rank < count:
            return value
        rank -= count
    raise AssertionError("slope multiset is smaller than the fiber")


def _pair_probe(i: int, j: int, minus: tuple[tuple[int, int], ...],
                denom: int) -> PairProbe:
    """Probe one oriented pair (w_i > w_j > 0), 0-based in, 1-based out.

    ``minus`` is the ascending (value, multiplicity) multiset, in units of
    1/denom, of the per-pattern derivatives over the fiber along -theta,
    w_i e_j - w_j e_i, positive exactly when e_j = +1 (the normalization
    behind the majority/bias argument); along +theta they are negated.
    The probe tries -theta first, then +theta, and one of the two upper
    medians is always positive, so the verdict is always true.  Proof:
    with w_i > w_j > 0 no slope is zero.  Sorted ascending, the -theta
    slopes s_0..s_{m-1} have upper median s_{m//2}, and the +theta ones
    have upper median -s_{m-1-m//2}: that is -s_{m//2} for odd m and
    -s_{m/2-1} >= -s_{m/2} for even m.  So med_minus <= 0 means
    med_minus < 0 and med_plus >= -med_minus > 0.
    """
    m = sum(c for _, c in minus)
    med_minus = _upper_median(minus, m)
    if med_minus > 0:
        direction, slopes, med = "-theta", minus, med_minus
    else:
        direction, slopes = "+theta", tuple((-v, c) for v, c in reversed(minus))
        med = _upper_median(slopes, m)
        assert med > 0, "a zero slope, impossible with w_i > w_j > 0"
    n_pos = sum(c for v, c in slopes if v > 0)
    n_neg = sum(c for v, c in slopes if v < 0)
    return PairProbe(i + 1, j + 1, direction,
                     tuple((Fraction(v, denom), c) for v, c in slopes),
                     n_pos, n_neg, m - n_pos - n_neg,
                     Fraction(med, denom), True,
                     Fraction(med_minus, denom), med_minus > 0)


def equalisation_probe(w: WeightVector, x: Fraction,
                       dist: ExactDist | None = None) -> ProbeReport:
    """First-order equalisation check at a positive atom x.

    Scans every unequal positive coordinate pair.  The selected pair is
    the first whose normalized (-theta) direction already raises the
    upper median, else the first pair, whose opposite direction then does
    (``_pair_probe``); per-pair data for all pairs rides along in ``all_pairs``.

    Everything is read from count tables on the common-denominator
    lattice, never from sign patterns.  The -theta slope of a pattern
    depends only on its signs (e_i, e_j), so a pair's slope multiset is
    four counts of the other n-2 coordinates: the full table divided by
    (z^{L w_j} + z^{-L w_j}) (one table per distinct weight) and then by
    (z^{L w_i} + z^{-L w_i}) at the points needed.  On the packed route
    the first division is ``_packed_quotient``, read through a
    ``_SlotView``; sparse lattices take ``_divide_out``.  The fiber size
    is the full count at L*x.  ``dist`` may carry a precomputed
    ``enumerate_dist(w)``, whose integer sums are that full table.
    """
    require_size(w.n)
    x = Fraction(x)
    if x <= 0:
        raise DomainError("the probe requires a positive atom")
    iw, denom = w._iw, w._denom
    if len({b for b in iw if b > 0}) <= 1:
        return ProbeReport(applicable=False, x=x,
                           reason="all nonzero coordinates are equal")
    if dist is None:
        dist = enumerate_dist(w)
    target = x * denom
    X = target.numerator
    at = bisect_left(dist.sums, X)
    if target.denominator != 1 or at == len(dist.sums) or dist.sums[at] != X:
        raise EmptyFiberError(f"{x} is not an atom of the distribution")
    fiber_size = dist.counts[at]
    total = sum(iw)
    largest = max(iw)
    # leave-one-out tables: every positive weight below the largest is some
    # pair's smaller weight
    smaller = {b for b in iw if 0 < b < largest}
    if _is_dense(total):
        packed = _packed_product(iw)
        without = {b: _SlotView(_unpack(_packed_quotient(packed, total, b), total - b + 1),
                                total - b)
                   for b in smaller}
    else:
        desc = list(zip(reversed(dist.sums), reversed(dist.counts)))
        without = {b: _divide_out(desc, b) for b in smaller}
    probes = []
    for a in range(w.n):
        for b in range(a + 1, w.n):
            if iw[a] > 0 and iw[b] > 0 and iw[a] != iw[b]:
                i, j = (a, b) if iw[a] > iw[b] else (b, a)
                big, small = iw[i], iw[j]
                count = _sign_counts(without[small], total - small, X, big, small)
                # -theta slopes w_i e_j - w_j e_i, ascending
                minus = ((-big - small, count[1, -1]), (small - big, count[-1, -1]),
                         (big - small, count[1, 1]), (big + small, count[-1, 1]))
                probes.append(_pair_probe(i, j, tuple(p for p in minus if p[1]), denom))
    selected = next((p for p in probes if p.normalized_verdict), probes[0])
    return ProbeReport(
        applicable=True,
        x=x,
        fiber_size=fiber_size,
        pair=(selected.i, selected.j),
        direction=selected.direction,
        slopes=selected.slopes,
        n_pos=selected.n_pos,
        n_neg=selected.n_neg,
        n_zero=selected.n_zero,
        upper_median_slope=selected.upper_median_slope,
        verdict=selected.verdict,
        normalized_verdict=selected.normalized_verdict,
        all_pairs=tuple(probes),
    )


# ---------------------------------------------------------------------------
# Random maximiser search
# ---------------------------------------------------------------------------

def random_maximizer_search(n: int, t: Threshold, trials: int, seed: int) -> SearchReport:
    """Sample integer weight vectors uniform on {1..100}^n and compare their
    normalised mid-tails against the equal-weight envelope.

    The gap envelope - best is always >= 0 if the equal-weight optimality
    holds; any violating vector is recorded verbatim.
    """
    if n > 12:
        raise SizeLimitError("random search is guarded at n <= 12")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = Lcg(seed)
    env = envelope_mid_tail(n, t).value
    best: Dyadic | None = None
    best_weights: tuple[int, ...] = ()
    violations = []
    for _ in range(trials):
        weights = tuple(rng.randint(1, 100) for _ in range(n))
        wv = WeightVector(weights)
        value = normalized_mid_tail(wv, t)
        if best is None or value > best:
            best, best_weights = value, weights
        if value > env:
            violations.append((weights, value))
    assert best is not None
    return SearchReport(n, t, trials, seed, best, best_weights,
                        env, env.sub(best) if env >= best else Dyadic(0, 0),
                        tuple(violations))
