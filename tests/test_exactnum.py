"""Exact number kernel: comparisons, dyadics, threshold grammar."""

import random
import sys
from fractions import Fraction

import pytest

from rademax.errors import DomainError, ParseError
from rademax.exactnum import (
    Dyadic,
    LatticeValue,
    Ordering,
    Threshold,
    cmp_lattice_lattice,
    cmp_lattice_threshold,
    parse_ratio,
)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def test_cmp_lattice_threshold_examples():
    # identical reals
    assert cmp_lattice_threshold(LatticeValue(2, 2), Threshold.parse("sqrt(2)")) is Ordering.EQ
    # cross-multiplied squares decide: 3/sqrt(3) = sqrt(3) > sqrt(2),
    # and the rational 3/2 > sqrt(2) via 9/4 vs 2
    assert cmp_lattice_threshold(LatticeValue(3, 3), Threshold.parse("sqrt(2)")) is Ordering.GT
    assert Threshold.parse("3/2").compare(Threshold.parse("sqrt(2)")) is Ordering.GT
    # sign case
    assert cmp_lattice_threshold(LatticeValue(-1, 1), Threshold.zero()) is Ordering.LT


def test_cmp_lattice_lattice_examples():
    assert cmp_lattice_lattice(LatticeValue(2, 2), LatticeValue(3, 9)) is Ordering.GT
    assert cmp_lattice_lattice(LatticeValue(1, 1), LatticeValue(2, 4)) is Ordering.EQ
    assert cmp_lattice_lattice(LatticeValue(-3, 9), LatticeValue(0, 4)) is Ordering.LT


def test_cmp_agrees_with_exact_fractions():
    rng = random.Random(20250811)
    for _ in range(10_000):
        k = rng.randrange(1, 40)
        m = rng.randrange(0, k + 1)
        v = LatticeValue(2 * m - k, k)
        if rng.random() < 0.5:
            kk = rng.randrange(1, 40)
            mm = rng.randrange(0, kk + 1)
            u = LatticeValue(2 * mm - kk, kk)
            got = cmp_lattice_lattice(v, u)
            expect = (v.signed_square > u.signed_square) - (v.signed_square < u.signed_square)
        else:
            sign = rng.choice([-1, 0, 1])
            sq = Fraction(rng.randrange(0, 50), rng.randrange(1, 20)) if sign else Fraction(0)
            if sign != 0 and sq == 0:
                sq = Fraction(1)
            t = Threshold.from_square(sign, sq)
            got = cmp_lattice_threshold(v, t)
            expect = (v.signed_square > t.signed_square) - (v.signed_square < t.signed_square)
        assert int(got) == expect


def test_cmp_total_order_properties():
    rng = random.Random(7)
    values = []
    for _ in range(60):
        k = rng.randrange(1, 12)
        m = rng.randrange(0, k + 1)
        values.append(LatticeValue(2 * m - k, k))
    for a in values:
        for b in values:
            # antisymmetry
            assert int(cmp_lattice_lattice(a, b)) == -int(cmp_lattice_lattice(b, a))
    # transitivity via sort consistency
    ordered = sorted(values, key=lambda v: v.signed_square)
    for x, y in zip(ordered, ordered[1:]):
        assert cmp_lattice_lattice(x, y) is not Ordering.GT


# ---------------------------------------------------------------------------
# dyadics
# ---------------------------------------------------------------------------

def test_dyadic_examples():
    assert Dyadic(1, 4).halve() == Dyadic(1, 5)                      # 1/16 -> 1/32
    assert Dyadic(9, 8).add(Dyadic(1, 8)) == Dyadic(5, 7)            # 9/256+1/256 = 5/128
    assert Dyadic(9, 8).to_decimal(6) == "0.035156"


def test_dyadic_canonical_forms():
    assert Dyadic(4, 4) == Dyadic(1, 2)
    assert Dyadic(0, 9) == Dyadic(0, 0)
    d = Dyadic(6, 3)
    assert (d.num, d.exp) == (3, 2)
    with pytest.raises(ValueError):
        Dyadic(-1, 0)


def _canonical_by_loop(num: int, exp: int) -> tuple[int, int]:
    """Canonical (num, exp), one trailing bit per pass (the reference)."""
    if num == 0:
        return 0, 0
    while num & 1 == 0 and exp > 0:
        num >>= 1
        exp -= 1
    return num, exp


def test_dyadic_canonical_form_matches_the_loop():
    rng = random.Random(65537)
    cases = [(rng.randrange(1, 1 << 40) << rng.randrange(0, 80), rng.randrange(0, 100))
             for _ in range(2000)]
    cases += [(1 << s, e) for s in (0, 1, 63, 64, 20000) for e in (0, 1, s - 1, s, s + 1, 20000)
              if e >= 0]
    cases += [((1 << 20000) - 1, 20000), (3 << 20000, 19999), (0, 5)]
    for num, exp in cases:
        d = Dyadic(num, exp)
        assert (d.num, d.exp) == _canonical_by_loop(num, exp), (num.bit_length(), exp)


def test_dyadic_add_sub_roundtrip():
    rng = random.Random(3)
    for _ in range(500):
        a = Dyadic(rng.randrange(0, 1 << 20), rng.randrange(0, 30))
        b = Dyadic(rng.randrange(0, 1 << 20), rng.randrange(0, 30))
        assert a.add(b).sub(b) == a
        assert a.add(b).as_fraction() == a.as_fraction() + b.as_fraction()


def test_dyadic_compare_to_ratio():
    assert Dyadic(1, 2).compare_to_ratio(Fraction(1, 4)) is Ordering.EQ
    assert Dyadic(1, 2).compare_to_ratio(Fraction(1, 5)) is Ordering.GT
    assert Dyadic(1, 2).compare_to_ratio(Fraction(1, 3)) is Ordering.LT


def test_dyadic_to_decimal_round_half_even():
    assert Dyadic(1, 1).to_decimal(1) == "0.5"
    # 1/8 = 0.125 -> 2 digits: ties to even 0.12
    assert Dyadic(1, 3).to_decimal(2) == "0.12"
    # 3/8 = 0.375 -> 2 digits: ties to even 0.38
    assert Dyadic(3, 3).to_decimal(2) == "0.38"
    assert Dyadic(1, 0).to_decimal(3) == "1.000"
    with pytest.raises(ValueError):
        Dyadic(1, 1).to_decimal(0)


def test_dyadic_str_stops_at_the_digit_limit():
    # the last integers the interpreter converts to text format; one more
    # digit is a DomainError (exit 3 in the CLI), not a bare ValueError
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter has no int-to-str digit limit")
    exp = (10 ** limit).bit_length() - 1  # 2^exp < 10^limit < 2^(exp+1)
    assert len(Dyadic(1, exp).dyadic_str()) == len("1/") + limit
    assert len(Dyadic(10 ** limit - 1, 0).dyadic_str()) == limit
    for too_long in (Dyadic(1, exp + 1), Dyadic(10 ** limit, 0), Dyadic(10 ** limit + 1, 1)):
        with pytest.raises(DomainError, match=f"more than {limit} decimal digits"):
            too_long.dyadic_str()


# ---------------------------------------------------------------------------
# threshold grammar and serialisation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("2", "2"),
    ("-1", "-1"),
    ("3/2", "3/2"),
    ("1.85", "37/20"),
    ("sqrt(3)", "sqrt(3)"),
    ("-sqrt(9/2)", "-sqrt(9/2)"),
    ("sqrt(4)", "2"),          # canonicalised: 4 is a perfect square
    ("0", "0"),
    ("-0", "0"),
    ("sqrt(0)", "0"),
])
def test_threshold_parse_and_str(text, expected):
    t = Threshold.parse(text)
    assert str(t) == expected
    # parse -> canonicalise -> serialise is idempotent
    assert str(Threshold.parse(str(t))) == expected


@pytest.mark.parametrize("bad", ["", "sqrt(-3)", "sqrt(1.5)", "+1", "1/0", "sqrt(1/0)",
                                 "abc", "1.5.2", ".5", "1.", "sqrt()", "nan"])
def test_threshold_parse_rejects(bad):
    with pytest.raises(ParseError):
        Threshold.parse(bad)


def test_threshold_value_semantics():
    assert Threshold.parse("2") == LatticeValue(4, 4).to_threshold()
    assert Threshold.parse("sqrt(2)") == LatticeValue(2, 2).to_threshold()
    assert Threshold.parse("sqrt(2)").negated().negated() == Threshold.parse("sqrt(2)")
    assert float(Threshold.parse("sqrt(2)")) == pytest.approx(2 ** 0.5, rel=1e-15)
    assert Threshold.parse("-sqrt(2)") < Threshold.zero() < Threshold.parse("1/2")


def test_threshold_order_operators():
    # the non-strict operators include equality, across display forms
    two, root3 = Threshold.parse("2"), Threshold.parse("sqrt(3)")
    assert two <= Threshold.parse("sqrt(4)") and two >= Threshold.parse("sqrt(4)")
    assert root3 <= two and not root3 >= two
    assert two >= root3 and not two <= root3
    minus_one = Threshold.parse("-1")
    assert minus_one <= Threshold.zero() and not minus_one >= Threshold.zero()


def test_parse_ratio():
    assert parse_ratio("1/20") == Fraction(1, 20)
    assert parse_ratio("0.05") == Fraction(1, 20)
    assert parse_ratio("-3") == Fraction(-3)
    with pytest.raises(ParseError):
        parse_ratio("1e-3")
    with pytest.raises(ParseError):
        parse_ratio("3/0")
