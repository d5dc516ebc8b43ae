"""Standard normal upper tail in floats, and an exact integer bound on it.

``erfc`` is the standard library's ``math.erfc``; the floats below are
built on it.  gaussian_upper_tail(t) = erfc(t / sqrt(2)) / 2 stays within
1e-12 absolute of the true tail, which the test suite checks against
mpmath on a dense grid, and ``gaussian_upper_quantile`` inverts it by
Newton's method.  These floats feed display columns and the search's
pre-screens only.

``upper_tail_ceiling`` is the exact counterpart that stopping decisions
rest on: an integer u with P(Z > x) <= u / 2^prec, proven by directed
rounding in integer fixed point (see its docstring).  No float enters it.
"""

from __future__ import annotations

import math
from math import erfc

_SQRT_PI = 1.7724538509055160273
_SQRT_2 = 1.4142135623730951

# floor(10^320 / sqrt(2*pi)): 1/sqrt(2*pi) rounded down at 320 decimals.
_INV_SQRT_2PI_DIGITS = int(
    "3989422804014326779399460599343818684758586311649346576659258296"
    "7065792589930183850125233390730693643030255886263518268551099195"
    "4555837242996212730625507706345270582720499317564516345807530597"
    "2536427320836695934782717029991864190634560328089333886067046536"
    "5279671686934195477117721206532537536913347875056042405570488425")
_INV_SQRT_2PI_SCALE = 10 ** 320


def gaussian_upper_tail(t: float) -> float:
    """P(Z > t) for standard normal Z, absolute error below 1e-12."""
    return 0.5 * erfc(t / _SQRT_2)


def hoeffding_bound(t: float) -> float:
    """Sub-Gaussian tail bound exp(-t^2 / 2) for unit-norm weight vectors."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(-0.5 * t * t)


def gaussian_upper_quantile(p: float) -> float:
    """The x >= 0 with gaussian_upper_tail(x) = p, for 0 < p <= 1/2.

    Newton's method on log P(Z > x), which is concave, started right of
    the root at the Chernoff point sqrt(-2 log 2p): every step moves left
    and stays right of the root.  Returns inf below p = 1e-300, where the
    float tail loses its precision.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError("p must lie in (0, 1/2]")
    if p < 1e-300:
        return math.inf
    x = math.sqrt(-2.0 * math.log(2.0 * p))
    log_p = math.log(p)
    for _ in range(100):
        tail = gaussian_upper_tail(x)
        density = math.exp(-0.5 * x * x) / (_SQRT_2 * _SQRT_PI)
        step = (math.log(tail) - log_p) * tail / density
        x += step
        if -step <= 1e-13 * (1.0 + x):
            break
    return x


def upper_tail_ceiling(x_num: int, prec: int) -> int:
    """Integer u with P(Z > x) <= u / 2^prec for x = x_num / 2^prec >= 0.

    P(Z > x) = 1/2 - c E(x), with c = 1/sqrt(2 pi) and the alternating
    series E(x) = sum_n (-1)^n x^(2n+1) / (2^n n! (2n+1)).  The powers
    x^(2n+1) / (2^n n!) run in fixed point twice, once rounded down and
    once up, so positive terms are added rounded down and negative ones
    subtracted rounded up.  The sum stops after a negative term once the
    term magnitudes decrease for good (x^2 < 2(n+2)) and fall below one
    unit; the omitted tail is then >= 0.  So the partial sum is a lower
    bound on E, the constant is rounded down, and u is an upper bound.

    The cancellation costs about 0.72 x^2 bits: ``prec`` >= 64 + 1.5 x^2
    keeps u within 1e-9 relative of the true tail wherever that tail is
    above 1e-300 (the constant carries 320 decimals).
    """
    if x_num < 0 or prec < 1:
        raise ValueError("need x_num >= 0 and prec >= 1")
    x_sq = x_num * x_num
    unit_sq = 1 << (2 * prec)
    lo = hi = x_num    # x^(2n+1) / (2^n n!) in units of 2^-prec
    total = 0          # lower bound on E(x), same units
    n = 0
    while True:
        if n % 2 == 0:
            total += lo // (2 * n + 1)
        else:
            total -= -(-hi // (2 * n + 1))
            if hi < 2 * n + 1 and x_sq < 2 * (n + 2) * unit_sq:
                break
        step = 2 * (n + 1) * unit_sq
        lo = lo * x_sq // step
        hi = -(-hi * x_sq // step)
        n += 1
    c = (_INV_SQRT_2PI_DIGITS << prec) // _INV_SQRT_2PI_SCALE
    return (1 << (prec - 1)) - ((c * max(total, 0)) >> prec)
