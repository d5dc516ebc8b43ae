"""Exact distribution of the k-coordinate equal-weight sum and its tails.

With k active coordinates of weight 1/sqrt(k), the sum takes the lattice
values (2m - k)/sqrt(k) with probability C(k, m)/2^k for m = 0..k.  All
tail functionals here are exact dyadics:

    strict_tail(k, t) = P(S > t)
    weak_tail(k, t)   = P(S >= t)
    mid_tail(k, t)    = P(S > t) + P(S = t)/2 = (strict + weak)/2

The boundary index comes in closed form from integer square roots of
p*k/q for t^2 = p/q, and t is the boundary atom iff (2m-k)^2 q = p k;
no floating floor of (k - t*sqrt(k))/2 is ever taken.  A tail sum past
the centre is the half-mass minus the few coefficients between the centre
and the boundary (about t*sqrt(k)/2 of them), and one below the centre
follows by symmetry, so no sum walks the k/2 coefficients from the top.

Pure functions over immutable values; thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exactnum import Dyadic, LatticeValue, Threshold


@dataclass(frozen=True)
class AtomTable:
    """Full exact law of the equal-weight sum: increasing atoms, dyadic masses."""

    k: int
    entries: tuple[tuple[LatticeValue, Dyadic], ...]


def _require_k(k: int) -> None:
    if k < 1:
        raise DomainError("k must be >= 1")


def pmf(k: int) -> AtomTable:
    """Atom table of the k-coordinate equal-weight sum; total mass exactly 1."""
    _require_k(k)
    entries = []
    coeff = 1  # C(k, 0)
    for m in range(k + 1):
        entries.append((LatticeValue(2 * m - k, k), Dyadic(coeff, k)))
        coeff = coeff * (k - m) // (m + 1)
    return AtomTable(k, tuple(entries))


def _boundary(k: int, t: Threshold, strict: bool) -> int:
    """Smallest m whose atom (2m-k)/sqrt(k) exceeds (or reaches) t.

    Returns k+1 when no atom qualifies.  Closed form: for t = sqrt(p/q) > 0
    the least integer a with a > t*sqrt(k) is isqrt(p*k // q) + 1, and the
    least with a >= t*sqrt(k) is the ceiling square root of ceil(p*k / q);
    then m = ceil((a + k) / 2).  t <= 0 follows by the symmetry m -> k - m.
    """
    if t.sign < 0:
        return k + 1 - _boundary(k, t.negated(), not strict)
    if t.sign == 0:
        return (k + 2) // 2 if strict else (k + 1) // 2
    p, q = t.sq.numerator, t.sq.denominator
    if strict:
        a = math.isqrt(p * k // q) + 1
    else:
        a = math.isqrt(-(-p * k // q) - 1) + 1
    return min((a + k + 1) // 2, k + 1)


def _upper_count(k: int, m0: int) -> tuple[int, int]:
    """(sum of C(k, m) over m in [m0, k], C(k, m0)), walking from the centre.

    Past the centre (2*m0 > k) the sum is the upper half-mass minus the
    coefficients between the centre and m0; at or below it, the sum is
    2^k minus the mirrored upper sum from k + 1 - m0.
    """
    if m0 > k:
        return 0, 0
    if m0 == 0:
        return 1 << k, 1
    if 2 * m0 <= k:
        mirrored, coeff = _upper_count(k, k + 1 - m0)  # coeff = C(k, m0 - 1)
        return (1 << k) - mirrored, coeff * (k - m0 + 1) // m0
    half = k // 2
    centre = math.comb(k, half)
    if k % 2:
        total, coeff = 1 << (k - 1), centre  # C(k, half + 1) = C(k, half)
    else:
        total, coeff = ((1 << k) - centre) >> 1, centre * half // (half + 1)
    for m in range(half + 1, m0):
        total -= coeff
        coeff = coeff * (k - m) // (m + 1)
    return total, coeff


def strict_tail(k: int, t: Threshold) -> Dyadic:
    """P(S_k > t) as an exact dyadic."""
    _require_k(k)
    return Dyadic(_upper_count(k, _boundary(k, t, strict=True))[0], k)


def weak_tail(k: int, t: Threshold) -> Dyadic:
    """P(S_k >= t) as an exact dyadic."""
    _require_k(k)
    return Dyadic(_upper_count(k, _boundary(k, t, strict=False))[0], k)


def mid_tail(k: int, t: Threshold) -> Dyadic:
    """P(S_k > t) + P(S_k = t)/2; equals the strict tail off the lattice.

    One sum: the weak count plus the strict count, which drops the atom's
    coefficient when t is an atom.
    """
    _require_k(k)
    m0 = _boundary(k, t, strict=False)
    weak, coeff = _upper_count(k, m0)
    p, q = t.sq.numerator, t.sq.denominator
    # the weak boundary's atom a/sqrt(k) is t exactly when a^2 q = p k: a
    # positive a there cannot meet a negative t
    on_atom = m0 <= k and (2 * m0 - k) ** 2 * q == p * k
    return Dyadic(2 * weak - (coeff if on_atom else 0), k + 1)


def mid_quantile(k: int, alpha: Fraction) -> Threshold:
    """Largest threshold whose mid-tail stays >= alpha (supremum convention).

    That is sup{t : mid_tail(k, t) >= alpha}, the convention of
    ``oracle.normalized_mid_quantile`` too; the envelope quantiles of
    ``envelope`` take inf{t : envelope(t) <= alpha} instead.  The
    qualifying set is a left ray; its supremum is always an atom of S_k,
    namely the largest atom a with P(S_k >= a) >= alpha.  The mid-tail AT
    the returned point may be below alpha; the guarantee is mid_tail >=
    alpha strictly left of it and < alpha strictly right of it.
    """
    _require_k(k)
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    num, den = alpha.numerator, alpha.denominator
    scale = den  # compare cum * den >= num * 2^k without fractions
    target = num * (1 << k)
    cum = 0
    coeff = 1  # C(k, k)
    for m in range(k, -1, -1):
        cum += coeff
        if cum * scale >= target:
            return LatticeValue(2 * m - k, k).to_threshold()
        coeff = coeff * m // (k - m + 1)
    # unreachable: cum reaches 2^k and alpha < 1
    raise AssertionError("mid_quantile failed to terminate")
