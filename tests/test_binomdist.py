"""Equal-weight sum law: pmf, tails, mid-quantile."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rademax import binomdist
from rademax.binomdist import (
    _TREE_FROM,
    _boundary,
    _central_binomial,
    mid_quantile,
    mid_tail,
    pmf,
    strict_tail,
    weak_tail,
)
from rademax.errors import DomainError
from rademax.exactnum import (
    DYADIC_ONE,
    Dyadic,
    LatticeValue,
    Ordering,
    Threshold,
    cmp_lattice_threshold,
)
from slow_routes import boundary_by_bisection

T = Threshold.parse


def _random_threshold(rng: random.Random) -> Threshold:
    sign = rng.choice([-1, 1])
    p = rng.randrange(0, 40)
    q = rng.randrange(1, 12)
    if p == 0:
        return Threshold.zero()
    return Threshold.from_square(sign, Fraction(p, q))


# ---------------------------------------------------------------------------
# pmf
# ---------------------------------------------------------------------------

def test_pmf_small_tables():
    t1 = pmf(1)
    assert [(v.a, v.k) for v, _ in t1.entries] == [(-1, 1), (1, 1)]
    assert [p for _, p in t1.entries] == [Dyadic(1, 1), Dyadic(1, 1)]

    t2 = pmf(2)
    assert [(v.a, p.as_fraction()) for v, p in t2.entries] == [
        (-2, Fraction(1, 4)), (0, Fraction(1, 2)), (2, Fraction(1, 4))]

    t4 = pmf(4)
    assert [(v.a, p.as_fraction()) for v, p in t4.entries] == [
        (-4, Fraction(1, 16)), (-2, Fraction(4, 16)), (0, Fraction(6, 16)),
        (2, Fraction(4, 16)), (4, Fraction(1, 16))]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 21])
def test_pmf_invariants(k):
    table = pmf(k)
    total = Dyadic(0, 0)
    for _, p in table.entries:
        total = total.add(p)
    assert total == DYADIC_ONE
    values = [v for v, _ in table.entries]
    for a, b in zip(values, values[1:]):
        assert a.signed_square < b.signed_square
    probs = [p for _, p in table.entries]
    assert probs == probs[::-1]  # symmetric


def test_pmf_rejects_zero():
    with pytest.raises(DomainError):
        pmf(0)


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def test_mid_tail_table_values():
    assert mid_tail(1, T("1")) == Dyadic(1, 2)
    assert mid_tail(8, T("2")) == Dyadic(9, 8)
    assert mid_tail(3, Threshold.zero()) == Dyadic(1, 1)
    assert mid_tail(2, T("sqrt(2)")) == Dyadic(1, 3)
    assert mid_tail(4, T("3")) == Dyadic(0, 0)


def test_tail_sandwich_and_atom_boundary():
    rng = random.Random(20250811)
    for _ in range(300):
        k = rng.randrange(1, 25)
        t = _random_threshold(rng)
        s, w, m = strict_tail(k, t), weak_tail(k, t), mid_tail(k, t)
        assert s <= m <= w
        is_atom = any(cmp_lattice_threshold(LatticeValue(2 * j - k, k), t) is Ordering.EQ
                      for j in range(k + 1))
        if is_atom:
            assert s < w
        else:
            assert s == m == w


def _pmf_tails(k, t):
    """(strict, weak) tail summed over the pmf table, an independent route."""
    strict = weak = Dyadic(0, 0)
    for v, p in pmf(k).entries:
        c = cmp_lattice_threshold(v, t)
        if c is not Ordering.LT:
            weak = weak.add(p)
            if c is Ordering.GT:
                strict = strict.add(p)
    return strict, weak


def test_tails_match_pmf_sums():
    # every branch of the centre walk: below and past the centre, on and
    # off atoms, odd and even k, the top atom and beyond it
    rng = random.Random(77)
    cases = [(k, _random_threshold(rng)) for k in range(1, 60) for _ in range(6)]
    cases += [(k, LatticeValue(2 * m - k, k).to_threshold())
              for k in (1, 2, 7, 10, 31) for m in range(k + 1) if 2 * m != k]
    cases += [(k, T(s)) for k in (301, 1000, 1001) for s in ("-3/2", "0", "1", "sqrt(5)", "40")]
    for k, t in cases:
        strict, weak = _pmf_tails(k, t)
        assert strict_tail(k, t) == strict, (k, t)
        assert weak_tail(k, t) == weak, (k, t)
        assert mid_tail(k, t) == strict.add(weak).halve(), (k, t)


def _grammar_thresholds(rng: random.Random, k: int) -> list[Threshold]:
    """Thresholds near the atoms of S_k in every grammar form, signed."""
    x = rng.uniform(0, 1.2 * k ** 0.5)
    d = rng.randrange(1, 10**6)
    texts = [str(round(x)), f"{x:.4f}", f"{round(x * d)}/{d}",
             f"sqrt({round(x * x)})", f"sqrt({round(x * x * d)}/{d})"]
    ts = [T(s) for s in texts]
    a = rng.randrange(-k, k + 1, 2)  # an exact atom of S_k
    ts.append(LatticeValue(a, k).to_threshold())
    return ts + [t.negated() for t in ts]


def test_boundary_matches_bisection():
    # random k <= 3000, every grammar form, exact atoms, 0 and negative t
    rng = random.Random(1618)
    for _ in range(400):
        k = rng.randrange(1, 3001)
        for t in _grammar_thresholds(rng, k) + [Threshold.zero()]:
            for strict in (True, False):
                assert _boundary(k, t, strict) == boundary_by_bisection(k, t, strict), \
                    (k, str(t), strict)


def test_boundary_at_every_atom_of_small_k():
    for k in range(1, 40):
        for a in range(-k, k + 1, 2):
            t = LatticeValue(a, k).to_threshold()
            for strict in (True, False):
                assert _boundary(k, t, strict) == boundary_by_bisection(k, t, strict)
        top = Threshold.from_square(1, Fraction(k + 1))
        assert _boundary(k, top, False) == _boundary(k, top, True) == k + 1
        assert _boundary(k, top.negated(), False) == 0


def test_mid_tail_symmetry():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randrange(1, 31)
        t = _random_threshold(rng)
        assert mid_tail(k, t).add(mid_tail(k, t.negated())) == DYADIC_ONE


def test_mid_tail_monotone_in_t():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randrange(1, 20)
        ts = sorted((_random_threshold(rng) for _ in range(8)),
                    key=lambda t: t.signed_square)
        vals = [mid_tail(k, t) for t in ts]
        for a, b in zip(vals, vals[1:]):
            assert a >= b


def test_cutoff_and_top_atom():
    for k in range(1, 21):
        top = LatticeValue(k, k).to_threshold()
        assert mid_tail(k, top) == Dyadic(1, k + 1)
        above = Threshold.from_square(1, top.sq + 1)
        assert mid_tail(k, above) == Dyadic(0, 0)


# ---------------------------------------------------------------------------
# the kernel against math.comb: product-tree centre, binary-split band
# ---------------------------------------------------------------------------

def _side(a: int, k: int, t: Threshold) -> int:
    """Sign of a/sqrt(k) - t, by integer squares."""
    sa = (a > 0) - (a < 0)
    if sa != t.sign:
        return 1 if sa > t.sign else -1
    d = a * a * t.sq.denominator - t.sq.numerator * k
    return (d > 0) - (d < 0) if sa > 0 else (d < 0) - (d > 0)


def _comb_counts(k: int, t: Threshold) -> tuple[int, int]:
    """(strict, weak) tail counts: C(k, m) summed over the atoms > t (>= t),
    walking down from the top atom by C(k, m-1) = C(k, m) m / (k-m+1); the
    coefficient where the walk stops must equal math.comb's."""
    strict = weak = 0
    coeff, m = 1, k  # C(k, k)
    while m >= 0:
        side = _side(2 * m - k, k, t)
        if side < 0:
            assert coeff == math.comb(k, m)
            break
        weak += coeff
        strict += coeff if side > 0 else 0
        coeff = coeff * m // (k - m + 1)
        m -= 1
    return strict, weak


def _assert_tails_match(k: int, t: Threshold) -> None:
    strict, weak = _comb_counts(k, t)
    assert strict_tail(k, t) == Dyadic(strict, k), (k, str(t))
    assert weak_tail(k, t) == Dyadic(weak, k), (k, str(t))
    assert mid_tail(k, t) == Dyadic(strict + weak, k + 1), (k, str(t))


def test_central_binomial_matches_math_comb():
    for k in range(3001):
        assert _central_binomial(k) == math.comb(k, k // 2), k
    rng = random.Random(2206)
    for _ in range(50):
        k = round(math.exp(rng.uniform(math.log(3001), math.log(10**5))))
        assert _central_binomial(k) == math.comb(k, k // 2), k


@pytest.mark.parametrize("k", [_TREE_FROM - 1, _TREE_FROM, _TREE_FROM + 1, 20000])
def test_tails_match_comb_sums_across_the_crossover(k):
    half = k // 2
    ts = [T(s) for s in ("-7/2", "-1", "0", "1/3", "1", "sqrt(3)", "7/2")]
    # atoms exactly on t: the first two past the centre (empty and one-term
    # band), one deep in the band, the top atom, and one below the centre
    ts += [LatticeValue(2 * m - k, k).to_threshold()
           for m in (half + 1, half + 2, half + 61, k, half - 5)]
    ts.append(Threshold.from_square(1, Fraction(k + 1)))  # boundary past k
    for t in ts:
        _assert_tails_match(k, t)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(1, _TREE_FROM - 1) | st.integers(_TREE_FROM, 3 * _TREE_FROM),
       st.sampled_from((-1, 1)),
       st.fractions(min_value=0, max_value=16, max_denominator=40),
       st.none() | st.integers(0, 10**6))
def test_mid_tail_matches_comb_sum_property(k, sign, sq, atom):
    if atom is not None:
        m = atom % (k + 1)
        t = LatticeValue(2 * m - k, k).to_threshold()
    else:
        t = Threshold.from_square(sign, sq) if sq else Threshold.zero()
    _assert_tails_match(k, t)


def test_crossover_picks_the_route(monkeypatch):
    # math.comb and the walk below _TREE_FROM (faster there), the tree and
    # the splitting from it on
    calls = []
    tree = binomdist._central_binomial
    monkeypatch.setattr(binomdist, "_central_binomial", lambda k: calls.append(k) or tree(k))
    mid_tail(_TREE_FROM - 1, T("1"))
    assert calls == []
    mid_tail(_TREE_FROM, T("1"))
    assert calls == [_TREE_FROM]


# ---------------------------------------------------------------------------
# mid-quantile
# ---------------------------------------------------------------------------

def test_mid_quantile_examples():
    assert mid_quantile(1, Fraction(1, 4)) == T("1")
    assert mid_quantile(4, Fraction(1, 16)) == T("2")
    # supremum convention: odd k has no atom at 0, so the level-1/2
    # boundary sits at the first positive atom 1/sqrt(5)
    assert mid_quantile(5, Fraction(1, 2)) == T("sqrt(1/5)")
    # even k: the atom at 0 carries the boundary
    assert mid_quantile(4, Fraction(1, 2)) == Threshold.zero()


def test_mid_quantile_postcondition():
    # Exact characterisation of sup{t : mid_tail >= alpha}: the result is
    # the largest atom whose weak tail still reaches alpha.  That gives
    # mid_tail >= alpha strictly left of it (the weak tail at the atom is
    # the mid-tail value throughout the open interval below) and
    # mid_tail < alpha strictly right of it.
    rng = random.Random(17)
    for _ in range(150):
        k = rng.randrange(1, 16)
        alpha = Fraction(rng.randrange(1, 64), 65)
        q = mid_quantile(k, alpha)
        atoms = [LatticeValue(2 * m - k, k) for m in range(k + 1)]
        matches = [m for m, v in enumerate(atoms)
                   if cmp_lattice_threshold(v, q) is Ordering.EQ]
        assert len(matches) == 1  # the sup is always an atom of S_k
        m = matches[0]
        assert weak_tail(k, q).compare_to_ratio(alpha) is not Ordering.LT
        if m < k:
            nxt = atoms[m + 1].to_threshold()
            assert weak_tail(k, nxt).compare_to_ratio(alpha) is Ordering.LT


def test_mid_quantile_rejects_bad_alpha():
    with pytest.raises(DomainError):
        mid_quantile(3, Fraction(0))
    with pytest.raises(DomainError):
        mid_quantile(3, Fraction(1))
