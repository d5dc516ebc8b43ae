"""S/T conversion, bound comparison tables, critical tables, figure data."""

import math
import random
from fractions import Fraction

import pytest

from rademax.errors import DomainError
from rademax.exactnum import Dyadic, Threshold
from rademax.statbridge import (
    FIGURE_GRID,
    comparison_csv,
    comparison_table,
    critical_table,
    figure_data,
    gaussian_upper_tail,
    hoeffding_bound,
    s_to_t,
    t_to_s,
)

T = Threshold.parse

REFERENCE_ROWS = {
    # t text -> (k_star, decimal, hoeffding, ratio, gaussian) as printed
    "1": (1, "0.250000", 0.6065, 0.41, 0.1587),
    "3/2": (3, "0.125000", 0.3247, 0.38, 0.0668),
    "sqrt(3)": (3, "0.062500", 0.2231, 0.28, 0.0416),
    "2": (8, "0.035156", 0.1353, 0.26, 0.0228),
    "sqrt(5)": (9, "0.019531", 0.0821, 0.24, 0.0127),
    "sqrt(6)": (13, "0.011230", 0.0498, 0.23, 0.0072),
    "3": (28, "0.001860", 0.0111, 0.17, 0.0013),
}


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def test_s_to_t_examples():
    assert s_to_t(0.0, 5) == 0.0
    assert s_to_t(1.0, 2) == pytest.approx(1.0, rel=1e-15)
    assert s_to_t(2.0, 9) == pytest.approx(2 * math.sqrt(8 / 5), rel=1e-14)


def test_s_to_t_domain():
    with pytest.raises(DomainError):
        s_to_t(1.0, 1)
    with pytest.raises(DomainError):
        s_to_t(3.0, 9)  # pole: s^2 = n
    with pytest.raises(DomainError):
        t_to_s(1.0, 1)


def test_t_to_s_examples():
    assert t_to_s(0.0, 7) == 0.0
    assert t_to_s(1.0, 2) == pytest.approx(1.0, rel=1e-15)
    assert t_to_s(2.529822128134704, 9) == pytest.approx(2.0, rel=1e-12)


def test_round_trip():
    rng = random.Random(6)
    for _ in range(400):
        n = rng.randrange(2, 1001)
        t = (rng.random() - 0.5) * 200.0
        assert s_to_t(t_to_s(t, n), n) == pytest.approx(t, rel=1e-12, abs=1e-12)


def test_s_to_t_strictly_increasing():
    n = 10
    prev = None
    s = -3.1
    while s < 3.11:
        cur = s_to_t(s, n)
        if prev is not None:
            assert cur > prev
        prev = cur
        s += 0.1


# ---------------------------------------------------------------------------
# comparison table
# ---------------------------------------------------------------------------

def test_comparison_table_matches_reference():
    rows = comparison_table(FIGURE_GRID)
    assert [str(r.t) for r in rows] == list(REFERENCE_ROWS)
    for row in rows:
        k_star, dec, hoeff, ratio, gauss = REFERENCE_ROWS[str(row.t)]
        assert row.k_star == k_star
        assert row.exact_decimal == dec
        assert row.hoeffding == pytest.approx(hoeff, abs=5e-5)
        assert row.ratio == pytest.approx(ratio, abs=0.02)
        assert row.gaussian_tail == pytest.approx(gauss, abs=5e-5)


def test_comparison_row_consistency():
    for row in comparison_table(FIGURE_GRID):
        assert row.ratio * row.hoeffding == pytest.approx(float(row.exact_value), rel=1e-9)
        # dominance chain on this grid: gaussian < exact < hoeffding
        assert row.gaussian_tail < float(row.exact_value) < row.hoeffding


def test_comparison_csv_shape():
    text = comparison_csv(comparison_table((T("2"),)))
    lines = text.strip().split("\n")
    assert lines[0] == "t,k_star,exact,hoeffding,ratio,gaussian"
    assert lines[1].startswith("2,8,9/256=0.035156,")


@pytest.mark.parametrize("text, hoeff_is_zero", [("38", False), ("40", True)])
def test_comparison_ratio_where_the_bound_underflows(text, hoeff_is_zero):
    # exp(-t^2/2) is subnormal at t = 38 and 0.0 at t = 40; the ratio is
    # still value / bound, checked in mpmath
    (row,) = comparison_table((T(text),))
    assert 0.0 <= row.hoeffding < 2.3e-308
    assert (row.hoeffding == 0.0) is hoeff_is_zero
    _assert_ratio_matches_mpmath(row)


@pytest.mark.parametrize("text, value_is_zero", [("37", False), ("75/2", True)])
def test_comparison_ratio_where_the_value_underflows(text, value_is_zero):
    # the bound is a normal float at t = 37 and 37.5, but the envelope
    # value's float is subnormal at 37 and 0.0 at 37.5
    (row,) = comparison_table((T(text),))
    assert row.hoeffding >= 2.3e-308
    value = float(row.exact_value)
    assert 0.0 <= value < 2.3e-308 and (value == 0.0) is value_is_zero
    _assert_ratio_matches_mpmath(row)


def _assert_ratio_matches_mpmath(row) -> None:
    import mpmath

    with mpmath.workdps(30):
        value = mpmath.mpf(row.exact_value.num) / mpmath.mpf(2) ** row.exact_value.exp
        exact = value * mpmath.exp(mpmath.mpf(float(row.t)) ** 2 / 2)
    assert row.ratio == pytest.approx(float(exact), rel=1e-12)


def test_comparison_rejects_nonpositive_t():
    with pytest.raises(DomainError):
        comparison_table((Threshold.zero(),))


# ---------------------------------------------------------------------------
# critical table
# ---------------------------------------------------------------------------

def test_critical_table_reference_cells():
    table = critical_table([4, 5, 6, 7, 8, 10], [Fraction(1, 20)])
    for n in (4, 5, 6, 7, 8, 10):
        row = table.row(n, Fraction(1, 20))
        assert str(row.s_crit) == "2"
        if n == 4:
            assert row.t_crit is None  # pole: s_crit^2 == n
        else:
            expected_t = 2.0 * math.sqrt((n - 1) / (n - 4))
            assert row.t_crit == pytest.approx(expected_t, rel=1e-12)


def test_critical_table_pole_is_unattainable():
    row = critical_table([1], [Fraction(1, 4)]).row(1, Fraction(1, 4))
    assert str(row.s_crit) == "1"
    assert row.t_crit is None
    text = critical_table([1], [Fraction(1, 4)]).to_csv()
    assert text.splitlines()[0] == "n,alpha,s_crit,t_crit"
    assert "1,1/4,1,unattainable" in text


def test_critical_table_alpha_quarter_large_n():
    for n in (9, 10, 12):
        row = critical_table([n], [Fraction(1, 40)]).row(n, Fraction(1, 40))
        assert str(row.s_crit) == "sqrt(5)"


def test_critical_rows_carry_both_conventions():
    row = critical_table([5], [Fraction(1, 20)]).row(5, Fraction(1, 20))
    assert row.value_at == Dyadic(1, 5)      # mid-tail at s_crit
    assert row.left_limit == Dyadic(1, 4)    # envelope just below s_crit


def test_critical_table_domain_errors():
    with pytest.raises(DomainError):
        critical_table([0], [Fraction(1, 20)])
    with pytest.raises(DomainError):
        critical_table([5], [Fraction(3, 4)])


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

FIG_X = [1.0, 1.5, 1.732, 2.0, 2.236, 2.449, 3.0]
FIG_ENVELOPE = [0.25, 0.125, 0.0625, 0.03515625, 0.01953125, 0.01123046875,
                0.00185958296]
FIG_RATIO = [0.41, 0.39, 0.28, 0.26, 0.24, 0.23, 0.17]
FIG_KSTAR = [1, 3, 3, 8, 9, 13, 28]


def test_figure_envelope_points():
    pts = figure_data("envelope")
    assert [round(x, 3) for x, _ in pts] == FIG_X
    assert [round(y, 11) for _, y in pts] == FIG_ENVELOPE


def test_figure_ratio_points():
    pts = figure_data("ratio")
    assert [round(y, 2) for _, y in pts] == FIG_RATIO


def test_figure_kstar_points():
    pts = figure_data("kstar")
    assert [int(y) for _, y in pts] == FIG_KSTAR


def test_figure_rejects_unknown():
    with pytest.raises(DomainError):
        figure_data("bogus")
