"""erfc and the normal tails against mpmath and the reference digits."""

import math

import mpmath
import pytest

from rademax import normal
from rademax.normal import (
    erfc,
    gaussian_upper_quantile,
    gaussian_upper_tail,
    hoeffding_bound,
    upper_tail_ceiling,
)

mpmath.mp.dps = 40


def test_erfc_against_mpmath_grid():
    worst = 0.0
    x = -10.0
    while x <= 10.0:
        ref = float(mpmath.erfc(x))
        worst = max(worst, abs(erfc(x) - ref))
        x += 0.1
    assert worst < 1e-13


def test_erfc_near_branch_cutoff():
    for x in (1.999, 2.0, 2.001):
        assert erfc(x) == pytest.approx(float(mpmath.erfc(x)), abs=1e-14)


def test_gaussian_upper_tail_values():
    assert gaussian_upper_tail(0.0) == 0.5
    assert gaussian_upper_tail(2.0) == pytest.approx(0.0228, abs=5e-5)
    assert gaussian_upper_tail(1.0) == pytest.approx(0.1587, abs=5e-5)
    assert gaussian_upper_tail(3.0) == pytest.approx(0.0013, abs=5e-5)


def test_gaussian_tail_symmetry():
    t = -6.0
    while t <= 6.0:
        assert abs(gaussian_upper_tail(t) + gaussian_upper_tail(-t) - 1.0) < 1e-12
        t += 0.37


def test_gaussian_tail_monotone():
    prev = 1.0
    t = 0.0
    while t <= 8.0:
        cur = gaussian_upper_tail(t)
        assert cur <= prev
        prev = cur
        t += 0.25


def test_hoeffding_examples():
    assert hoeffding_bound(0.0) == 1.0
    assert hoeffding_bound(2.0) == pytest.approx(0.1353, abs=5e-5)
    assert hoeffding_bound(3.0) == pytest.approx(0.0111, abs=5e-5)
    assert hoeffding_bound(2.0) == math.exp(-2.0)
    with pytest.raises(ValueError):
        hoeffding_bound(-1.0)


def _ceiling_precision(x: float) -> int:
    # the precision the envelope search uses for a threshold t >= x
    return 64 + 3 * math.ceil(x * x) // 2


def test_upper_tail_ceiling_against_mpmath():
    # an upper bound on P(Z > x), within 1e-9 relative, on [0, 8]
    for i in range(0, 321):
        x = i / 40
        prec = _ceiling_precision(x)
        x_num = int(x * 2 ** prec) + (i * 7919) % 1000  # off the float grid
        u = upper_tail_ceiling(x_num, prec)
        exact = mpmath.ncdf(-mpmath.mpf(x_num) / 2 ** prec)
        ratio = mpmath.mpf(u) / 2 ** prec / exact
        assert 1 <= ratio <= 1 + 1e-9, (x, ratio)


def test_upper_tail_ceiling_edges():
    assert upper_tail_ceiling(0, 8) == 128  # P(Z > 0) = 1/2 exactly
    # far out the ceiling stays an upper bound while the tail is tiny
    prec = _ceiling_precision(12.0)
    u = upper_tail_ceiling(12 << prec, prec)
    assert mpmath.mpf(u) / 2 ** prec >= mpmath.ncdf(-12)
    with pytest.raises(ValueError):
        upper_tail_ceiling(-1, 8)


def test_inverse_sqrt_2pi_digits():
    with mpmath.workdps(340):
        exact = mpmath.mpf(10) ** 320 / mpmath.sqrt(2 * mpmath.pi)
        assert normal._INV_SQRT_2PI_DIGITS == int(mpmath.floor(exact))
    assert normal._INV_SQRT_2PI_SCALE == 10 ** 320


def test_gaussian_upper_quantile_inverts_the_tail():
    assert gaussian_upper_quantile(0.5) == 0.0
    for p in (0.4, 0.1, 0.05, 1e-3, 1e-8, 1e-50, 1e-299):
        x = gaussian_upper_quantile(p)
        assert gaussian_upper_tail(x) == pytest.approx(p, rel=1e-12)
    assert gaussian_upper_quantile(1e-301) == math.inf
    for bad in (0.0, 0.6, -1.0):
        with pytest.raises(ValueError):
            gaussian_upper_quantile(bad)
