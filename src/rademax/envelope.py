"""Extremal search over support sizes: envelopes and their quantiles.

The worst-case mid-tail at threshold t over nonnegative unit-norm weight
vectors of length n is attained by equal-weight vectors supported on k
coordinates, so the search reduces to

    max over k of  mid_tail(k, t),

finitely for k <= n and, for the universal envelope, over all k with a
certified truncation: once

    gaussian_upper_tail(t) + C_BE / sqrt(K) + margin  <  best so far

every remaining support size K' >= K is dominated, because the mid-tail
of a standardized k-term +-1 sum sits within the Berry-Esseen distance
C_BE / sqrt(k) of the normal tail (C_BE = 0.4748 for unit-variance
symmetric +-1 summands).  When the bound never closes before the hard
cap, the result honestly carries certificate ``hard_cap_hit`` plus a
warning instead of a silent truncation.

The k-scan uses a Pascal-triangle recurrence across k, so each support
size costs O(1) big-integer operations:

    sum_{j<=J} C(k+1, j) = 2 sum_{j<=J} C(k, j) - C(k, J)

with the boundary index J nondecreasing in k (checked by exact integer
comparison, never by floating floor).  The direct per-k sums in
``binomdist`` provide an independent route; the test suite cross-checks
the two.

Quantiles come out of the same scan.  Each mid_tail(k, .) is a
nonincreasing step function, so it drops to alpha at one atom, the
crossing atom c_k = (k - 2j*)/sqrt(k), where j* is the first index from
the top whose weak tail exceeds alpha (j* is nondecreasing in k too).
The envelope is the maximum over k, so its level-alpha quantile is
max_k c_k, attained exactly when every k tying at the maximum has
mid-tail <= alpha there.  The universal scan stops once the Berry-Esseen
bound at the running maximum drops to alpha: no later k can then reach
or pass it.

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
from .normal import gaussian_upper_tail

BERRY_ESSEEN_CLOSED = "berry_esseen_closed"
HARD_CAP_HIT = "hard_cap_hit"


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for the unbounded support-size search.

    ``be_constant`` is the Berry-Esseen constant for unit-variance
    symmetric +-1 summands; ``safety_margin`` is added on the bound side
    of the comparison so float rounding can never fake a closure.
    """

    k_cap: int = 4096
    be_constant: float = 0.4748
    safety_margin: float = 1e-9

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
    t_star) and witness_k_left attains it.  ``capped`` flags that the
    universal envelope at t_star hit the hard cap and the Berry-Esseen
    ceiling at the cap, gaussian_upper_tail(t_star) + C_BE/sqrt(k_cap) +
    margin, still exceeds alpha, so value_at <= alpha is proven only over
    k <= k_cap.
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


def _max_scan(
    t: Threshold,
    k_from: int,
    k_to: int,
    numerator: Callable[[int, int, int], tuple[int, int]],
    stop_bound: Callable[[int], float] | None,
) -> tuple[Dyadic, tuple[int, ...], int, str]:
    """Maximize numerator(k, strict, atom)/2^exp over the k range.

    ``stop_bound(k_next)`` (when given) returns a float upper bound valid
    for every remaining support size; the scan closes once it falls below
    the running best.  Returns (value, argmax ties, last k, certificate).
    """
    best_num, best_exp = -1, 0
    best_float = 0.0
    argmax: list[int] = []
    certificate = HARD_CAP_HIT if stop_bound is not None else BERRY_ESSEEN_CLOSED
    k_last = k_from - 1
    for k, strict, atom_c in _tail_scan(t, k_from, k_to):
        num, exp = numerator(k, strict, atom_c)
        c = 1 if best_num < 0 else _cmp_raw(num, exp, best_num, best_exp)
        if c > 0:
            best_num, best_exp = num, exp
            best_float = dyadic_to_float(num, exp)
            argmax = [k]
        elif c == 0:
            argmax.append(k)
        k_last = k
        if stop_bound is not None and stop_bound(k + 1) < best_float:
            certificate = BERRY_ESSEEN_CLOSED
            break
    return Dyadic(best_num, best_exp), tuple(argmax), k_last, certificate


def _mid_numerator(k: int, strict: int, atom_c: int) -> tuple[int, int]:
    return 2 * strict + atom_c, k + 1


def _weak_numerator(k: int, strict: int, atom_c: int) -> tuple[int, int]:
    return strict + atom_c, k


def _be_stop(t: float, policy: TruncationPolicy) -> Callable[[int], float]:
    """Berry-Esseen ceiling on every tail of every S_K at t, as a function of K."""
    phi = gaussian_upper_tail(t)
    c_be = policy.be_constant
    margin = policy.safety_margin
    return lambda k: phi + c_be / math.sqrt(k) + margin


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

def envelope_mid_tail(n: int, t: Threshold) -> EnvelopeResult:
    """Exact maximum of mid_tail(k, t) over support sizes k = 1..n.

    Exhaustive, so the certificate is trivially closed.  When every k is
    below the cutoff ceil(t^2) the value is zero and all k tie.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if t.sign < 0:
        raise DomainError("threshold must be >= 0")
    k0 = k_min(t)
    if k0 > n:
        return EnvelopeResult(t, DYADIC_ZERO, tuple(range(1, n + 1)), n,
                              BERRY_ESSEEN_CLOSED)
    value, argmax, k_last, _ = _max_scan(t, k0, n, _mid_numerator, None)
    return EnvelopeResult(t, value, argmax, k_last, BERRY_ESSEEN_CLOSED)


def universal_envelope(t: Threshold, policy: TruncationPolicy | None = None) -> EnvelopeResult:
    """Supremum of mid_tail(k, t) over all k >= 1, with a stopping certificate.

    The scan starts at ceil(t^2) and closes via the Berry-Esseen bound;
    if the bound cannot close before ``policy.k_cap`` the result carries
    certificate ``hard_cap_hit`` and an explicit warning (not an error).
    """
    policy = policy or TruncationPolicy()
    if t.sign <= 0:
        raise DomainError("universal envelope requires t > 0")
    k0 = k_min(t)
    if k0 > policy.k_cap:
        raise DomainError(f"k_cap={policy.k_cap} is below the minimum support "
                          f"size {k0} = ceil(t^2)")
    value, argmax, k_last, certificate = _max_scan(
        t, k0, policy.k_cap, _mid_numerator, _be_stop(float(t), policy))
    warning = None
    if certificate == HARD_CAP_HIT:
        warning = (f"search stopped at the hard cap k={policy.k_cap} before the "
                   "Berry-Esseen bound closed; larger support sizes are unverified")
    return EnvelopeResult(t, value, argmax, k_last, certificate, warning)


def _weak_max(t: Threshold, n: int | None, policy: TruncationPolicy) -> tuple[Dyadic, int, str]:
    """Largest weak tail over support sizes (the envelope's left limit at t).

    Finite when n is given, Berry-Esseen truncated otherwise.  Returns
    (value, smallest witness k, certificate).
    """
    k0 = k_min(t)
    if n is not None:
        if k0 > n:
            return DYADIC_ZERO, 1, BERRY_ESSEEN_CLOSED
        value, argmax, _, cert = _max_scan(t, k0, n, _weak_numerator, None)
    else:
        value, argmax, _, cert = _max_scan(
            t, k0, policy.k_cap, _weak_numerator, _be_stop(float(t), policy))
    return value, argmax[0], cert


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


def _crossing_max(alpha: Fraction, k_to: int,
                  policy: TruncationPolicy | None) -> Threshold:
    """Largest crossing atom max_k c_k over k = 1..k_to, or a DomainError.

    J = j* - 1 is the last index from the top whose weak tail stays at or
    below alpha, so S = W_{j*-1} and S + CJ1 = W_{j*}, the weak-tail
    counts at the atoms above and at c_k.  c_k is closed (mid_tail(k, c_k)
    <= alpha) iff W_{j*-1} + W_{j*} <= alpha * 2^(k+1).  With a policy the
    scan stops once the Berry-Esseen bound at the running maximum drops to
    alpha, since every later k then has weak tail <= alpha there.
    """
    num, den = alpha.numerator, alpha.denominator
    alpha_float = float(alpha)

    def weak_le_alpha(k: int, J: int, S: int, CJ1: int) -> bool:
        return (S + CJ1) * den <= num << k

    # c_1 = 1 > 0 always, so the seed (0, 1) is replaced at k = 1
    best_a, best_k, best_open = 0, 1, False
    stop = None
    for k, J, S, CJ1 in _pascal_scan(1, k_to, weak_le_alpha):
        a = k - 2 * (J + 1)
        is_open = (2 * S + CJ1) * den > num << (k + 1)
        c = a * a * best_k - best_a * best_a * k   # a, best_a >= 0
        if c > 0:
            best_a, best_k, best_open = a, k, is_open
            if policy is not None:
                stop = _be_stop(a / math.sqrt(k), policy)
        elif c == 0:
            best_open = best_open or is_open
        if stop is not None and stop(k + 1) <= alpha_float:
            break
    if best_open:
        raise DomainError("the envelope passes below alpha without attaining it; "
                          "no smallest threshold exists for this alpha")
    return LatticeValue(best_a, best_k).to_threshold()


def quantile_universal(alpha: Fraction,
                       policy: TruncationPolicy | None = None) -> QuantileResult:
    """Smallest t >= 0 with universal envelope value <= alpha.

    t_star is the largest crossing atom over k <= k_cap (see
    ``_crossing_max``); value_at and left_limit are evaluated there once.
    """
    policy = policy or TruncationPolicy()
    _require_alpha(alpha)
    t_star = _crossing_max(alpha, policy.k_cap, policy)
    env = universal_envelope(t_star, policy)
    left_limit, witness, _ = _weak_max(t_star, None, policy)
    capped = (env.certificate == HARD_CAP_HIT
              and _be_stop(float(t_star), policy)(policy.k_cap) > float(alpha))
    return QuantileResult(alpha, t_star, env.value, left_limit, witness, capped)


def quantile_finite(n: int, alpha: Fraction) -> QuantileResult:
    """Smallest t >= 0 with the n-coordinate envelope at or below alpha."""
    _require_alpha(alpha)
    if n < 1:
        raise DomainError("n must be >= 1")
    if alpha < Fraction(1, 1 << (n + 1)):
        raise DomainError(f"alpha below 2^-{n + 1}: the n={n} envelope only "
                          "falls that low past its largest atom, so no "
                          "smallest threshold exists")
    t_star = _crossing_max(alpha, n, None)
    left_limit, witness, _ = _weak_max(t_star, n, TruncationPolicy())
    value_at = envelope_mid_tail(n, t_star).value
    return QuantileResult(alpha, t_star, value_at, left_limit, witness)
