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
the centre is the half-mass minus the band of coefficients between the
centre and the boundary (about t*sqrt(k)/2 of them), and one below the
centre follows by symmetry, so no sum walks the k/2 coefficients from the
top.

From k = _TREE_FROM on, neither cost steps through k-bit integers one
coefficient at a time.  The centre C(k, k//2) is a product of prime powers
(P. Goetgheluck, "Computing binomial coefficients", Amer. Math. Monthly 94,
1987): a bytearray sieve, Legendre's exponent of each prime in
k!/(h!(k-h)!) (0 or 1 above sqrt(k)), and a pairwise product tree.  The
band is one binary-splitting triple (P, Q, T) over the small ratios
C(k, i+1)/C(k, i) = (k-i)/(i+1), so it costs two k-bit operations:
C(k, m0) = C(k, h+1) P / Q and band = C(k, h+1) T / Q.  Below _TREE_FROM
the centre is math.comb and the band a walk, one k-bit multiply and divide
per coefficient: at small k that is faster, since its integers are short.

Pure functions over immutable values; thread-safe.
"""

from __future__ import annotations

import itertools
import math
import operator
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


# Smallest k whose centre and band take the product tree and the binary
# splitting.  Timed over the whole mid_tail, the tree and the splitting
# first win near k = 800 on CPython 3.10 and between k = 1,300 and 1,800 on
# 3.11-3.13; at 2048 they win on all four.
_TREE_FROM = 2048


def _primes(n: int) -> list[int]:
    """The primes <= n, by a bytearray sieve of Eratosthenes."""
    sieve = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


def _product(factors: list[int]) -> int:
    """Product by a pairwise tree, so each multiply meets operands of equal size."""
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [*map(operator.mul, factors[::2], factors[1::2]), *odd]
    return factors[0] if factors else 1


def _central_binomial(k: int) -> int:
    """C(k, k//2) as the product of p^e over primes p <= k (Goetgheluck).

    Legendre: the exponent of p in k!/(h!(k-h)!) is the sum over j of
    floor(k/p^j) - floor(h/p^j) - floor((k-h)/p^j), one term (0 or 1) once
    p > sqrt(k).
    """
    h = k // 2
    r = k - h
    root = math.isqrt(k)
    factors = []
    for p in _primes(k):
        if p > root:
            if k // p - h // p - r // p:
                factors.append(p)
            continue
        e, q = 0, p
        while q <= k:
            e += k // q - h // q - r // q
            q *= p
        factors.append(p ** e)
    return _product(factors)


def _ratio_split(k: int, a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) over the ratios r_i = (k - i)/(i + 1) for a <= i < b.

    P/Q = r_a ... r_(b-1) and T/Q = 1 + r_a + r_a r_(a+1) + ... +
    r_a ... r_(b-2), by binary splitting: the halves combine as P1 P2,
    Q1 Q2 and T1 Q2 + P1 T2.
    """
    if b - a == 1:
        return k - a, a + 1, a + 1
    mid = (a + b) // 2
    p1, q1, t1 = _ratio_split(k, a, mid)
    p2, q2, t2 = _ratio_split(k, mid, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _upper_count(k: int, m0: int) -> tuple[int, int]:
    """(sum of C(k, m) over m in [m0, k], C(k, m0)), from the centre.

    Past the centre (2*m0 > k) the sum is the upper half-mass minus the
    band of coefficients C(k, m), half < m < m0; at or below it, the sum
    is 2^k minus the mirrored upper sum from k + 1 - m0.
    """
    if m0 > k:
        return 0, 0
    if m0 == 0:
        return 1 << k, 1
    if 2 * m0 <= k:
        mirrored, coeff = _upper_count(k, k + 1 - m0)  # coeff = C(k, m0 - 1)
        return (1 << k) - mirrored, coeff * (k - m0 + 1) // m0
    half = k // 2
    small = k < _TREE_FROM
    centre = math.comb(k, half) if small else _central_binomial(k)
    if k % 2:
        total, coeff = 1 << (k - 1), centre  # C(k, half + 1) = C(k, half)
    else:
        total, coeff = ((1 << k) - centre) >> 1, centre * half // (half + 1)
    if small:
        for m in range(half + 1, m0):
            total -= coeff
            coeff = coeff * (k - m) // (m + 1)
    elif m0 > half + 1:
        p, q, t = _ratio_split(k, half + 1, m0)
        total -= coeff * t // q
        coeff = coeff * p // q
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
