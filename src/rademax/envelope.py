"""Extremal search over support sizes: envelopes and their quantiles.

The worst-case mid-tail at threshold t over nonnegative unit-norm weight
vectors of length n is attained by equal-weight vectors supported on k
coordinates, so the search reduces to

    max over k of  mid_tail(k, t),

over k <= n for the finite envelope and over all k for the universal one.
Both stop early on one tail bound.  For the k-term equal-weight sum S_K
and t sqrt(K) > 2,

    P(S_K >= t)  <=  Phi-bar(t - 2/sqrt(K)),

where Phi-bar is the standard normal upper tail.  Proof: S_K >= t means
X >= (K + t sqrt(K))/2 for X ~ Bin(K, 1/2), a lower tail P(X <= K - m)
with (K - m + 1)/K <= 1/2 - d and d = t/(2 sqrt(K)) - 1/K > 0.  The
Zubkov-Serov inequality (Theory Probab. Appl. 57, 2013) bounds it by
Phi-bar(sqrt(2K H(1/2 - d))), H the Kullback-Leibler divergence from
1/2, and H(1/2 - d) >= 2 d^2 gives Phi-bar(2 d sqrt(K)).  The right side
decreases in K, so its value at K bounds the weak and mid tails of every
K' >= K: once it drops strictly below the best value found, no later
support size can tie or win, and the search closes with certificate
``zubkov_serov_closed``.  The decision is exact: a rational lower bound
on t - 2/sqrt(K) from integer square roots, an integer upper bound on
Phi-bar at it (``normal.upper_tail_ceiling``), and an integer comparison
with the best dyadic.  A float inverse of Phi-bar only pre-screens which
K to try; it is generous, so it never delays the first exact closure.
When the universal search reaches the hard cap unclosed, the result
carries certificate ``hard_cap_hit`` plus a warning instead of a silent
truncation.

The k-scan uses a Pascal-triangle recurrence across k, so each support
size costs O(1) big-integer operations:

    sum_{j<=J} C(k+1, j) = 2 sum_{j<=J} C(k, j) - C(k, J)

with the boundary index J nondecreasing in k (checked by exact integer
comparison, never by floating floor).  The direct per-k sums in
``binomdist`` provide an independent route; the test suite cross-checks
the two.

A quantile t* = inf{t : envelope(t) <= alpha} takes two scans on the same
engine: a crossing scan, then one tail scan at t*.  Each mid_tail(k, .)
is a nonincreasing step function, so it drops to alpha at one atom, the
crossing atom c_k = (k - 2j*)/sqrt(k), where j* is the first index from
the top whose weak tail exceeds alpha (j* is nondecreasing in k too).
The envelope is the maximum over k, so its level-alpha quantile is
max_k c_k, attained exactly when every k tying at the maximum has
mid-tail <= alpha there.  The crossing scan stops once the tail bound at
the running maximum drops to alpha: every later k then has weak tail
<= alpha there, so its crossing atom lies strictly below.  The tail scan
at t* tracks the largest mid tail (value_at) and the largest weak tail
with its smallest witness k (left_limit, witness_k_left) in one pass,
and closes on the tail bound like an envelope search.

Everything is deterministic and exact: results are bit-identical no
matter how the k-range might be partitioned across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import binomdist
from .errors import DomainError
from .exactnum import (
    DYADIC_ZERO,
    Dyadic,
    LatticeValue,
    Threshold,
    dyadic_to_float,
)
from .normal import gaussian_upper_quantile, upper_tail_ceiling

ZUBKOV_SEROV_CLOSED = "zubkov_serov_closed"
HARD_CAP_HIT = "hard_cap_hit"


@dataclass(frozen=True)
class TruncationPolicy:
    """Hard cap on the unbounded support-size search.

    The stop itself is the exact tail bound of the module docstring; the
    cap only bounds the work when that bound cannot close.
    """

    k_cap: int = 4096

    def __post_init__(self) -> None:
        if self.k_cap < 1:
            raise DomainError("k_cap must be >= 1")


@dataclass(frozen=True)
class EnvelopeResult:
    """Maximum mid-tail over the searched support sizes.

    ``argmax_k`` lists every tie; ``value`` equals mid_tail(k, t) for each
    of them and strictly exceeds it for every other searched k.
    """

    t: Threshold
    value: Dyadic
    argmax_k: tuple[int, ...]
    k_searched: int
    certificate: str
    warning: str | None = None


@dataclass(frozen=True)
class QuantileResult:
    """Smallest threshold where the envelope drops to alpha or below.

    Sandwich invariant: value_at <= alpha < left_limit, where left_limit
    is the envelope value just left of t_star (the largest weak tail at
    t_star) and witness_k_left attains it.  ``capped`` flags a universal
    quantile whose scan reached k_cap while the tail bound at t_star,
    Phi-bar(t_star - 2/sqrt(k_cap + 1)), still exceeded alpha, so
    value_at <= alpha is proven only over k <= k_cap.
    """

    alpha: Fraction
    t_star: Threshold
    value_at: Dyadic
    left_limit: Dyadic
    witness_k_left: int
    capped: bool = False


def k_min(t: Threshold) -> int:
    """Smallest support size whose lattice reaches t: max(1, ceil(t^2)).

    Below it the tail is identically zero; at sqrt(k) == t the top atom
    still contributes half its mass to the mid-tail.
    """
    if t.sign < 0:
        raise DomainError("threshold must be >= 0")
    p, q = t.sq.numerator, t.sq.denominator
    return max(1, (p + q - 1) // q)


# ---------------------------------------------------------------------------
# Incremental scan engine
# ---------------------------------------------------------------------------

def _pascal_scan(
    k_from: int,
    k_to: int,
    grows: Callable[[int, int, int, int], bool],
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (k, J, S, CJ1) for k = k_from..k_to.

    Index j counts from the top of the lattice (value k - 2j); S is the
    sum of C(k, j) over j = 0..J and CJ1 = C(k, J+1).  J starts at -1 and
    grows while grows(k, J, S, CJ1) holds.  Every boundary rule used here
    keeps J nondecreasing in k, so each step is a Pascal step at fixed J
    followed by more growth.
    """
    k = k_from
    J = -1
    S = 0
    CJ1 = 1
    while True:
        while grows(k, J, S, CJ1):
            J += 1
            S += CJ1
            CJ1 = CJ1 * (k - J) // (J + 1)
        yield k, J, S, CJ1
        if k >= k_to:
            return
        CJ = CJ1 * (J + 1) // (k - J) if J >= 0 else 0
        S = 2 * S - CJ
        CJ1 = CJ1 * (k + 1) // (k - J)
        k += 1


def _tail_scan(t: Threshold, k_from: int, k_to: int) -> Iterator[tuple[int, int, int]]:
    """Yield (k, strict_count, atom_coeff) for k = k_from..k_to, t >= 0.

    strict_count = sum of C(k, j) over j = 0..J where the j-th value from
    the top, a = k - 2j, satisfies a/sqrt(k) > t; atom_coeff = C(k, J+1)
    when a = k - 2(J+1) lands exactly on t, else 0.  So

        strict tail = strict_count / 2^k
        mid tail    = (2*strict_count + atom_coeff) / 2^(k+1)
        weak tail   = (strict_count + atom_coeff) / 2^k
    """
    p, q = t.sq.numerator, t.sq.denominator

    def above_t(k: int, J: int, S: int, CJ1: int) -> bool:
        a = k - 2 * (J + 1)
        return a > 0 and a * a * q > p * k

    for k, J, S, CJ1 in _pascal_scan(k_from, k_to, above_t):
        a = k - 2 * (J + 1)
        yield k, S, CJ1 if a >= 0 and a * a * q == p * k else 0


def _cmp_raw(n1: int, e1: int, n2: int, e2: int) -> int:
    """Sign of n1/2^e1 - n2/2^e2 by shifting to the common exponent."""
    if e1 >= e2:
        diff = n1 - (n2 << (e1 - e2))
    else:
        diff = (n1 << (e2 - e1)) - n2
    return (diff > 0) - (diff < 0)


def _tail_ceiling(p: int, q: int, k: int) -> tuple[int, int] | None:
    """(u, prec) with P(S_K >= t) <= u / 2^prec for every K >= k, t = sqrt(p/q).

    u / 2^prec is an upper bound on Phi-bar(t - 2/sqrt(k)) (see the module
    docstring); None when t sqrt(k) <= 2, where that bound does not hold.
    """
    if p * k <= 4 * q:
        return None
    prec = 64 + 3 * -(-p // q) // 2
    # floor(t 2^prec) - ceil(2^(prec+1) / sqrt(k)) <= (t - 2/sqrt(k)) 2^prec
    x_num = math.isqrt((p << 2 * prec) // q) - math.isqrt((1 << 2 * prec + 2) // k) - 1
    return upper_tail_ceiling(max(x_num, 0), prec), prec


def _prescreen_quantile(level: float) -> float:
    """Float x with Phi-bar(x) a relative 1e-6 above ``level`` (inf when it
    underflows).  The margin dwarfs the float error, so a K that the exact
    ceiling closes at always passes ``_closing_k``."""
    return gaussian_upper_quantile(min(0.5, level * (1 + 1e-6))) if level > 0 else math.inf


def _closing_k(x: float, quantile: float) -> float:
    """Float pre-screen: the K from which x - 2/sqrt(K) passes ``quantile``."""
    return 4.0 / (x - quantile) ** 2 if x > quantile else math.inf


def _max_scan(t: Threshold, k_from: int,
              k_to: int) -> tuple[Dyadic, tuple[int, ...], Dyadic, int, int, bool]:
    """Largest mid and weak tails at t over k = k_from..k_to, in one scan.

    The scan closes once the tail ceiling for every K > k falls strictly
    below the running mid best.  That settles both maxima: every k has
    weak tail >= mid tail, so the weak best is at least the mid best, and
    the ceiling bounds both tails of every later K, so no later k can tie
    or win either.  Returns (mid value, its argmax ties, weak value, the
    smallest k attaining it, last k, closed).
    """
    p, q = t.sq.numerator, t.sq.denominator
    t_float = float(t)
    best_num, best_exp = -1, 0
    argmax: list[int] = []
    weak_num, weak_exp, witness = -1, 0, k_from
    k_try = math.inf
    closed = False
    for k, strict, atom_c in _tail_scan(t, k_from, k_to):
        num = 2 * strict + atom_c
        c = 1 if best_num < 0 else _cmp_raw(num, k + 1, best_num, best_exp)
        if c > 0:
            best_num, best_exp = num, k + 1
            argmax = [k]
            k_try = _closing_k(t_float, _prescreen_quantile(dyadic_to_float(num, k + 1)))
        elif c == 0:
            argmax.append(k)
        # Off an atom the weak tail is the mid tail, and the weak best is at
        # least the mid best, so it can only pass the weak best where c > 0.
        if (c > 0 or atom_c) and (
                weak_num < 0 or _cmp_raw(strict + atom_c, k, weak_num, weak_exp) > 0):
            weak_num, weak_exp, witness = strict + atom_c, k, k
        if k + 1 >= k_try:
            ceiling = _tail_ceiling(p, q, k + 1)
            if ceiling is not None and _cmp_raw(*ceiling, best_num, best_exp) < 0:
                closed = True
                break
    return (Dyadic(best_num, best_exp), tuple(argmax), Dyadic(weak_num, weak_exp),
            witness, k, closed)


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

def envelope_mid_tail(n: int, t: Threshold) -> EnvelopeResult:
    """Exact maximum of mid_tail(k, t) over support sizes k = 1..n.

    The scan stops at min(n, K) where the tail bound closes at K, so the
    certificate is always closed and ``k_searched`` is where it stopped.
    When every k is below the cutoff ceil(t^2) the value is zero and all
    k tie.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if t.sign < 0:
        raise DomainError("threshold must be >= 0")
    k0 = k_min(t)
    if k0 > n:
        return EnvelopeResult(t, DYADIC_ZERO, tuple(range(1, n + 1)), n,
                              ZUBKOV_SEROV_CLOSED)
    value, argmax, _, _, k_last, _ = _max_scan(t, k0, n)
    return EnvelopeResult(t, value, argmax, k_last, ZUBKOV_SEROV_CLOSED)


def universal_envelope(t: Threshold, policy: TruncationPolicy | None = None) -> EnvelopeResult:
    """Supremum of mid_tail(k, t) over all k >= 1, with a stopping certificate.

    The scan starts at ceil(t^2) and closes via the tail bound; if the
    bound cannot close before ``policy.k_cap`` the result carries
    certificate ``hard_cap_hit`` and an explicit warning (not an error).
    """
    policy = policy or TruncationPolicy()
    if t.sign <= 0:
        raise DomainError("universal envelope requires t > 0")
    k0 = k_min(t)
    if k0 > policy.k_cap:
        raise DomainError(f"k_cap={policy.k_cap} is below the minimum support "
                          f"size {k0} = ceil(t^2)")
    value, argmax, _, _, k_last, closed = _max_scan(t, k0, policy.k_cap)
    if closed:
        return EnvelopeResult(t, value, argmax, k_last, ZUBKOV_SEROV_CLOSED)
    warning = (f"search stopped at the hard cap k={policy.k_cap} before the "
               "tail bound closed; larger support sizes are unverified")
    return EnvelopeResult(t, value, argmax, k_last, HARD_CAP_HIT, warning)


def atom_grid(k_max: int, lo: Threshold, hi: Threshold) -> tuple[LatticeValue, ...]:
    """Sorted atoms of the equal-weight sums with k <= k_max inside [lo, hi].

    A real shared by several k keeps the representative with the smallest
    k.  The quantile scan never builds this grid; it is the slow breakpoint
    route the tests compare the scan against.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if lo > hi:
        raise DomainError("lo must be <= hi")
    reps: dict[Fraction, LatticeValue] = {}
    for k in range(1, k_max + 1):
        for m in range(binomdist._boundary(k, lo, strict=False),
                       binomdist._boundary(k, hi, strict=True)):
            v = LatticeValue(2 * m - k, k)
            reps.setdefault(v.signed_square, v)
    return tuple(reps[key] for key in sorted(reps))


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------

def _require_alpha(alpha: Fraction) -> None:
    if not 0 < alpha < Fraction(1, 2):
        raise DomainError("alpha must lie in (0, 1/2)")


def _crossing_max(alpha: Fraction, k_to: int) -> tuple[Threshold, bool]:
    """Largest crossing atom max_k c_k over k = 1..k_to, or a DomainError.

    J = j* - 1 is the last index from the top whose weak tail stays at or
    below alpha, so S = W_{j*-1} and S + CJ1 = W_{j*}, the weak-tail
    counts at the atoms above and at c_k.  c_k is closed (mid_tail(k, c_k)
    <= alpha) iff W_{j*-1} + W_{j*} <= alpha * 2^(k+1).  The scan stops
    once the tail ceiling at the running maximum drops to alpha, since
    every later k then has weak tail <= alpha there.  Returns (the
    maximum, whether that ceiling stopped the scan).
    """
    num, den = alpha.numerator, alpha.denominator
    quantile = _prescreen_quantile(float(alpha))

    def weak_le_alpha(k: int, J: int, S: int, CJ1: int) -> bool:
        return (S + CJ1) * den <= num << k

    # c_1 = 1 > 0 always, so the seed (0, 1) is replaced at k = 1
    best_a, best_k, best_open = 0, 1, False
    k_try = math.inf
    closed = False
    for k, J, S, CJ1 in _pascal_scan(1, k_to, weak_le_alpha):
        a = k - 2 * (J + 1)
        is_open = (2 * S + CJ1) * den > num << (k + 1)
        c = a * a * best_k - best_a * best_a * k   # a, best_a >= 0
        if c > 0:
            best_a, best_k, best_open = a, k, is_open
            k_try = _closing_k(a / math.sqrt(k), quantile)
        elif c == 0:
            best_open = best_open or is_open
        if k + 1 >= k_try:
            ceiling = _tail_ceiling(best_a * best_a, best_k, k + 1)
            if ceiling is not None and ceiling[0] * den <= num << ceiling[1]:
                closed = True
                break
    if best_open:
        raise DomainError("the envelope passes below alpha without attaining it; "
                          "no smallest threshold exists for this alpha")
    return LatticeValue(best_a, best_k).to_threshold(), closed


def quantile_universal(alpha: Fraction,
                       policy: TruncationPolicy | None = None) -> QuantileResult:
    """Smallest t >= 0 with universal envelope value <= alpha.

    Convention: t_star = inf{t : envelope(t) <= alpha}, not the supremum
    of {t : mid-tail >= alpha} of ``binomdist.mid_quantile``.  t_star is
    the largest crossing atom a/sqrt(k) over k <= k_cap (``_crossing_max``,
    t_star >= c_1 = 1); one tail scan at t_star from k_min(t_star) =
    ceil(a^2/k) <= k gives value_at, left_limit and witness_k_left.
    """
    policy = policy or TruncationPolicy()
    _require_alpha(alpha)
    t_star, closed = _crossing_max(alpha, policy.k_cap)
    value_at, _, left_limit, witness, _, _ = _max_scan(t_star, k_min(t_star), policy.k_cap)
    return QuantileResult(alpha, t_star, value_at, left_limit, witness, not closed)


def quantile_finite(n: int, alpha: Fraction) -> QuantileResult:
    """Smallest t >= 0 with the n-coordinate envelope at or below alpha.

    t_star = inf{t : envelope(t) <= alpha}, found by the same two scans as
    in ``quantile_universal`` over k <= n.
    """
    _require_alpha(alpha)
    if n < 1:
        raise DomainError("n must be >= 1")
    if alpha < Fraction(1, 1 << (n + 1)):
        raise DomainError(f"alpha below 2^-{n + 1}: the n={n} envelope only "
                          "falls that low past its largest atom, so no "
                          "smallest threshold exists")
    t_star, _ = _crossing_max(alpha, n)
    value_at, _, left_limit, witness, _, _ = _max_scan(t_star, k_min(t_star), n)
    return QuantileResult(alpha, t_star, value_at, left_limit, witness)
