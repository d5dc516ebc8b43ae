"""Brute-force oracle: enumeration, fibers, probe, random search."""

import contextlib
import itertools
import math
import random
from array import array
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rademax import oracle
from rademax.binomdist import mid_tail, pmf
from rademax.errors import DomainError, EmptyFiberError, SizeLimitError
from rademax.exactnum import DYADIC_ONE, Dyadic, Threshold
from rademax.oracle import (
    MAX_COORDINATES,
    ExactDist,
    Lcg,
    PairProbe,
    ProbeReport,
    WeightVector,
    dist_by_pattern_walk,
    enumerate_dist,
    equalisation_probe,
    fiber,
    normalized_mid_quantile,
    normalized_mid_tail,
    random_maximizer_search,
)

T = Threshold.parse


def W(*values) -> WeightVector:
    return WeightVector(tuple(Fraction(v) for v in values))


# ---------------------------------------------------------------------------
# enumerate_dist
# ---------------------------------------------------------------------------

def test_enumerate_examples():
    d = enumerate_dist(W(1, 1))
    assert d.atoms() == ((Fraction(-2), Dyadic(1, 2)),
                         (Fraction(0), Dyadic(1, 1)),
                         (Fraction(2), Dyadic(1, 2)))
    d = enumerate_dist(W("3/5", "4/5"))
    assert [str(v) for v, _ in d.atoms()] == ["-7/5", "-1/5", "1/5", "7/5"]
    assert all(p == Dyadic(1, 2) for _, p in d.atoms())
    d = enumerate_dist(W(1, 1, 1))
    assert [(v, p.as_fraction()) for v, p in d.atoms()] == [
        (Fraction(-3), Fraction(1, 8)), (Fraction(-1), Fraction(3, 8)),
        (Fraction(1), Fraction(3, 8)), (Fraction(3), Fraction(1, 8))]


def test_enumerate_matches_pattern_walk():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randrange(1, 9)
        vals = [Fraction(rng.randrange(0, 8), rng.randrange(1, 5)) for _ in range(n)]
        if all(x == 0 for x in vals):
            continue
        w = W(*vals)
        assert enumerate_dist(w) == dist_by_pattern_walk(w)


def test_enumerate_guards():
    with pytest.raises(SizeLimitError):
        enumerate_dist(W(*([1] * 25)))
    with pytest.raises(DomainError):
        W(0, 0)
    with pytest.raises(DomainError):
        W(-1, 2)


def test_weight_vector_errors_and_inputs():
    for bad, message in [((), "at least one entry"), ((1, -2), "must be >= 0"),
                         ((Fraction(-1, 3), 2), "must be >= 0"), ((0, Fraction(0)), "positive entry")]:
        with pytest.raises(DomainError, match=message):
            WeightVector(bad)
    # ints, Fractions and a mix build equal vectors of Fractions
    as_int = WeightVector((3, 0, 4))
    assert as_int == WeightVector((Fraction(3), Fraction(0), Fraction(4))) \
        == WeightVector((3, Fraction(0), Fraction(8, 2)))
    assert all(type(x) is Fraction for x in as_int.w)
    assert as_int.w == (3, 0, 4) and as_int.norm_sq == 25
    halves = WeightVector((1, Fraction(1, 2)))
    assert halves.norm_sq == Fraction(5, 4)
    # the lattice is built once, in the constructor, and stays out of the
    # repr, equality and hash
    assert (halves._iw, halves._denom) == ((2, 1), 2)
    assert repr(halves) == "WeightVector(w=(Fraction(1, 1), Fraction(1, 2)))"
    assert hash(as_int) == hash(WeightVector((Fraction(6, 2), 0, 4)))


@contextlib.contextmanager
def _route(dense: bool):
    """Force every count table onto the packed (dense) or dict route."""
    with mock.patch.object(oracle, "_is_dense", lambda total: dense):
        yield


def _by_route(w: WeightVector, packed: bool) -> ExactDist:
    """The law of w with the count table forced onto one route."""
    with _route(packed):
        return enumerate_dist(w)


def test_both_routes_match_pattern_walk():
    # zero weights, rational weights, n = 1, and a lattice too sparse for
    # the packed route (its 2 * 10^12 slots are never built)
    vectors = [W(5), W("1/3"), W(0, 0, 3), W(2, 0, 2, 1, 0), W("1/3", "1/2", "5/6"),
               W("1/1000", "1/999", "3/7", 0), W(*range(1, 11)), W(7, 7, 7, 7)]
    for w in vectors:
        walk = dist_by_pattern_walk(w)
        assert _by_route(w, packed=True) == _by_route(w, packed=False) == walk, w
        assert enumerate_dist(w) == walk
    sparse = W(1, 10**12, 3)
    assert enumerate_dist(sparse) == _by_route(sparse, packed=False) \
        == dist_by_pattern_walk(sparse)


def test_route_rule_follows_the_table_size(monkeypatch):
    routes = []
    packed, convolved = oracle._packed_table, oracle._scaled_counts
    monkeypatch.setattr(oracle, "_packed_table",
                        lambda iw: routes.append("packed") or packed(iw))
    monkeypatch.setattr(oracle, "_scaled_counts",
                        lambda iw: routes.append("dict") or convolved(iw))
    limit = oracle._PACKED_SLOTS
    enumerate_dist(W(1, limit - 2))  # W + 1 = 2^16 slots
    enumerate_dist(W(1, limit - 1))
    enumerate_dist(W("1/2", "1/3"))
    # many coordinates and one large weight: 48 distinct sums, not 6.7e7 slots
    d = enumerate_dist(W(*([1] * 23), 67_000_000))
    assert routes == ["packed", "dict", "packed", "dict"]
    assert d.counts == tuple(math.comb(23, m) for m in range(24)) * 2
    assert d.sums[24:] == tuple(67_000_000 + s for s in range(-23, 24, 2))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(st.one_of(st.fractions(min_value=0, max_value=9, max_denominator=6),
                          st.sampled_from([Fraction(0), Fraction(10**9), Fraction(1, 10**6)])),
                min_size=1, max_size=8).filter(any))
def test_routes_agree_property(vals):
    w = W(*vals)
    walk = dist_by_pattern_walk(w)
    assert enumerate_dist(w) == _by_route(w, packed=False) == walk
    if sum(w._iw) < 1 << 20:  # the packed route's table must fit in memory
        assert _by_route(w, packed=True) == walk


def test_packed_slots_hold_the_largest_counts():
    n = MAX_COORDINATES
    assert oracle._SLOT_BITS == 32 > n
    # one positive weight among zeros: two atoms of 2^(n-1) patterns each
    d = enumerate_dist(W(*([0] * (n - 1)), 1))
    assert d.sums == (-1, 1) and d.counts == (1 << (n - 1), 1 << (n - 1))
    # equal weights: the binomial coefficients
    d = enumerate_dist(W(*([1] * n)))
    assert d.counts == tuple(math.comb(n, m) for m in range(n + 1))
    assert d.sums == tuple(range(-n, n + 1, 2))


def test_slot_width_guard_rejects_too_many_coordinates():
    bits = oracle._SLOT_BITS
    # the widest n the slot admits still holds its largest count, 2^(n-1)
    assert oracle._packed_table([0] * (bits - 2) + [3]) \
        == ((-3, 3), (1 << (bits - 2), 1 << (bits - 2)))
    for n in (bits, bits + 1):
        with pytest.raises(SizeLimitError):
            oracle._packed_table([0] * (n - 1) + [3])


def test_packed_route_is_validated(monkeypatch):
    # a table that carried into the next slot loses patterns: ExactDist
    # rejects it instead of returning a wrong law
    packed = oracle._packed_table

    def carried(iw):
        sums, _ = packed(iw)
        return sums, (1,) * len(sums)

    monkeypatch.setattr(oracle, "_packed_table", carried)
    with pytest.raises(ValueError, match="sum to 2"):
        enumerate_dist(W(1, 2, 3))


def _quotient_cases():
    """Integer weight lists with zero and repeated weights, n up to 24
    (23 zeros beside a 4 leave a quotient of one slot holding 2^23)."""
    rng = random.Random(1618)
    cases = [[1, 1], [1, 1, 1, 1], [2, 7], [3, 3, 3, 10], [0, 5, 0, 5],
             [0] * 23 + [4], [1] * 24, [0] * 20 + [1, 2, 3, 9]]
    for _ in range(60):
        n = rng.randrange(1, 10)
        cases.append([rng.choice((0, 1, 2, 3, rng.randrange(1, 40))) for _ in range(n)])
    return cases


def test_packed_quotient_matches_division():
    # the doubled series against the big-int quotient and the dict chain,
    # for every distinct positive weight; the cases include exact covers,
    # where the last doubling step reaches 2^N exactly (b M = W - b + 1)
    exact_covers = 0
    for iw in _quotient_cases():
        total = sum(iw)
        packed = oracle._packed_product(iw)
        desc = list(zip(*map(reversed, oracle._packed_table(iw))))
        for b in {b for b in iw if b > 0}:
            q = oracle._packed_quotient(packed, total, b)
            assert q == packed // (1 + (1 << (oracle._SLOT_BITS * b))), (iw, b)
            top = total - b
            view = oracle._SlotView(oracle._unpack(q, top + 1), top)
            chain = oracle._divide_out(desc, b)
            assert all(view.get(s) == chain.get(s, 0) for s in range(-top - 3, top + 4)), (iw, b)
            m = 2
            while b * m < top + 1:
                m *= 2
            exact_covers += b * m == top + 1
    assert exact_covers >= 10


def test_slot_view_reads_like_a_dict():
    # slot m holds sum 2m - top: the other parity and |s| > top read 0
    top = 5
    view = oracle._SlotView(array(oracle._SLOT_CODE, [1, 2, 3, 4, 5, 6]), top)
    table = {-5: 1, -3: 2, -1: 3, 1: 4, 3: 5, 5: 6}
    assert len(view) == 6
    assert [view.get(s) for s in range(-9, 10)] == [table.get(s, 0) for s in range(-9, 10)]


def test_exact_dist_validates_the_integer_law():
    d = ExactDist(2, (-3, -1, 1, 3), (1, 1, 1, 1), 5)
    assert d.values == (Fraction(-3, 5), Fraction(-1, 5), Fraction(1, 5), Fraction(3, 5))
    with pytest.raises(ValueError, match="sum to 2"):
        ExactDist(2, (-1, 1), (1, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        ExactDist(1, (1, -1), (1, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        ExactDist(1, (0, 0), (1, 1))
    with pytest.raises(ValueError, match="symmetric"):
        ExactDist(2, (-2, 0, 1), (1, 2, 1))
    with pytest.raises(ValueError, match="symmetric"):
        ExactDist(2, (-1, 1), (1, 3))
    with pytest.raises(ValueError, match="one pattern count per atom"):
        ExactDist(1, (-1, 0, 1), (1, 1))
    with pytest.raises(ValueError, match="denominator"):
        ExactDist(1, (-1, 1), (1, 1), 0)


def test_exact_dist_reads_like_a_fraction_law():
    # values, atoms() and prob() against a walk that sums Fractions directly
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randrange(1, 7)
        vals = [Fraction(rng.randrange(0, 9), rng.choice((1, 2, 3, 4, 6, 10)))
                for _ in range(n)]
        if not any(vals):
            continue
        law = Counter(sum(e * v for e, v in zip(eps, vals))
                      for eps in itertools.product((1, -1), repeat=n))
        d = enumerate_dist(W(*vals))
        assert d.values == tuple(sorted(law))
        assert d.atoms() == tuple((v, Dyadic(law[v], n)) for v in sorted(law))
        for v in law:
            assert d.prob(v) == Dyadic(law[v], n)
        off = Fraction(1, 7 * d.denom)  # never on the lattice
        for x in (min(law) + off, max(law) - off, max(law) + 1):
            assert d.prob(x) == Dyadic(0, 0)


def test_permutation_invariance():
    rng = random.Random(11)
    for _ in range(20):
        vals = [Fraction(rng.randrange(1, 30)) for _ in range(6)]
        d1 = enumerate_dist(W(*vals))
        rng.shuffle(vals)
        d2 = enumerate_dist(W(*vals))
        assert d1 == d2


# ---------------------------------------------------------------------------
# normalised tails and quantiles
# ---------------------------------------------------------------------------

def test_normalized_mid_tail_examples():
    assert normalized_mid_tail(W(3, 4), T("1")) == Dyadic(1, 2)
    assert normalized_mid_tail(W("6/5", "8/5"), T("1")) == Dyadic(1, 2)


def test_scale_invariance():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(1, 7)
        w = [Fraction(rng.randrange(1, 40)) for _ in range(n)]
        c = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        t = T(rng.choice(["1", "3/2", "sqrt(2)", "sqrt(1/3)", "0", "2"]))
        assert normalized_mid_tail(W(*w), t) == normalized_mid_tail(W(*(c * x for x in w)), t)


def test_equal_weights_agree_with_binomdist():
    for k in range(1, 13):
        w = W(*([1] * k))
        for s in ("0", "1", "3/2", "sqrt(2)", "2", "sqrt(1/5)", "-1"):
            t = T(s)
            assert normalized_mid_tail(w, t) == mid_tail(k, t), (k, s)


def test_equal_weights_pmf_equivalence_to_16():
    # atom-for-atom agreement between enumeration and the binomial table
    for k in range(1, 17):
        dist = enumerate_dist(W(*([1] * k)))
        table = pmf(k)
        assert len(dist.values) == len(table.entries)
        for (lattice, prob), value, count in zip(table.entries, dist.values,
                                                 dist.counts):
            assert value == lattice.a and Dyadic(count, k) == prob


def test_normalized_mid_quantile_examples():
    assert normalized_mid_quantile(W(1, 1), Fraction(1, 4)) == T("sqrt(2)")
    assert normalized_mid_quantile(W(1), Fraction(1, 4)) == T("1")
    # atom at 0 exists for even equal weights: symmetric median is 0
    assert normalized_mid_quantile(W(1, 1), Fraction(1, 2)) == Threshold.zero()
    # no atom at 0: supremum convention lands on the first positive atom
    assert normalized_mid_quantile(W(1, 2), Fraction(1, 2)) == T("sqrt(1/5)")
    # alpha 2^n = 6/5 is not an integer: the top atom alone (1 of 4) falls short
    assert normalized_mid_quantile(W(1, 2), Fraction(3, 10)) == T("sqrt(1/5)")


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def test_fiber_examples():
    f = fiber(W("3/5", "4/5"), Fraction(7, 5))
    assert f.configs == ((1, 1),)
    f = fiber(W(1, 1), Fraction(0))
    assert f.configs == ((1, -1), (-1, 1))
    f = fiber(W(1, 2), Fraction(3))
    assert f.configs == ((1, 1),)
    with pytest.raises(EmptyFiberError):
        fiber(W(1, 2), Fraction(2))


def test_fiber_mass_accounting():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randrange(1, 7)
        w = W(*(rng.randrange(1, 10) for _ in range(n)))
        d = enumerate_dist(w)
        total = 0
        for v, _ in d.atoms():
            total += len(fiber(w, v).configs)
        assert total == 1 << n


# ---------------------------------------------------------------------------
# equalisation probe
# ---------------------------------------------------------------------------

def test_probe_two_coordinates():
    r = equalisation_probe(W("3/5", "4/5"), Fraction(7, 5))
    assert r.applicable and r.verdict
    assert r.pair == (2, 1)            # w_2 > w_1, 1-based
    assert r.direction == "-theta"
    assert (r.n_pos, r.n_neg, r.n_zero) == (1, 0, 0)
    assert r.upper_median_slope == Fraction(1, 5)


def test_probe_not_applicable_on_equal_weights():
    r = equalisation_probe(W(1, 1), Fraction(2))
    assert not r.applicable
    assert r.reason == "all nonzero coordinates are equal"


def test_probe_three_coordinates():
    r = equalisation_probe(W(1, 2, 4), Fraction(5))
    assert r.verdict
    assert r.pair == (3, 2)            # first pair whose -theta direction works
    assert r.direction == "-theta"
    assert r.slopes == ((Fraction(2), 1),)
    assert len(r.all_pairs) == 3


def test_probe_opposite_direction_instance():
    # fiber {(-,+)}: the e_j-aligned direction has slope 26*(-1)-14*(+1) = -40,
    # and the conditional bias P(e_1 = +1 | S = 12) is 0 (the complementary
    # sum is the two-point +-26, not unimodal), so the normalized direction
    # fails; the +theta rotation raises the fiber value at rate +40.
    r = equalisation_probe(W(14, 26), Fraction(12))
    assert r.applicable and r.verdict
    assert r.direction == "+theta"
    assert not r.normalized_verdict
    assert r.upper_median_slope == Fraction(40)
    assert r.all_pairs[0].normalized_median == Fraction(-40)


def test_probe_some_direction_always_works():
    # no pair with unequal positive weights can fail both directions:
    # zero slopes are impossible, so the two upper medians cannot straddle 0
    rng = random.Random(314)
    for _ in range(150):
        n = rng.randrange(2, 7)
        while True:
            vals = [rng.randrange(1, 50) for _ in range(n)]
            if len(set(vals)) > 1:
                break
        w = W(*vals)
        d = enumerate_dist(w)
        for x in (v for v in d.values if v > 0):
            assert equalisation_probe(w, x).verdict


def _slow_pair(w: WeightVector, configs, i: int, j: int) -> PairProbe:
    """Per-pattern slopes over an explicit fiber, for one pair (w_i > w_j)."""
    wi, wj = w.w[i], w.w[j]
    minus = sorted(wi * eps[j] - wj * eps[i] for eps in configs)
    m = len(minus)
    med_minus = minus[m // 2]
    if med_minus > 0:
        direction, slopes, med, verdict = "-theta", minus, med_minus, True
    else:
        plus = sorted(-s for s in minus)
        med_plus = plus[m // 2]
        if med_plus > 0:
            direction, slopes, med, verdict = "+theta", plus, med_plus, True
        else:
            direction, slopes, med, verdict = "-theta", minus, med_minus, False
    n_pos = sum(1 for s in slopes if s > 0)
    n_neg = sum(1 for s in slopes if s < 0)
    multiset = tuple(sorted(Counter(slopes).items()))
    return PairProbe(i + 1, j + 1, direction, multiset, n_pos, n_neg,
                     m - n_pos - n_neg, med, verdict, med_minus, med_minus > 0)


def _slow_probe(w: WeightVector, x: Fraction) -> ProbeReport:
    """The equalisation probe driven by the 2^n walk in ``fiber``."""
    if len({v for v in w.w if v > 0}) <= 1:
        return ProbeReport(applicable=False, x=x,
                           reason="all nonzero coordinates are equal")
    configs = fiber(w, x).configs
    probes = []
    for a, b in itertools.combinations(range(w.n), 2):
        if w.w[a] > 0 and w.w[b] > 0 and w.w[a] != w.w[b]:
            i, j = (a, b) if w.w[a] > w.w[b] else (b, a)
            probes.append(_slow_pair(w, configs, i, j))
    selected = next((p for p in probes if p.normalized_verdict),
                    next((p for p in probes if p.verdict), probes[0]))
    return ProbeReport(
        applicable=True, x=x, fiber_size=len(configs),
        pair=(selected.i, selected.j), direction=selected.direction,
        slopes=selected.slopes, n_pos=selected.n_pos, n_neg=selected.n_neg,
        n_zero=selected.n_zero, upper_median_slope=selected.upper_median_slope,
        verdict=selected.verdict, normalized_verdict=selected.normalized_verdict,
        all_pairs=tuple(probes))


def _assert_probe_matches_fiber_walk(w: WeightVector) -> None:
    """Whole reports agree at every positive atom; at the lattice point
    above each atom and at points off the lattice, either both routes
    raise EmptyFiberError or neither does and the reports agree."""
    d = enumerate_dist(w)
    off = Fraction(1, 7 * d.denom)
    points = {x + step for x in d.values if x > 0 for step in (0, Fraction(1, d.denom))}
    for x in sorted(points | {off, d.values[-1] + off}):
        try:
            fast = equalisation_probe(w, x)
        except EmptyFiberError:
            assert x not in d.values
            with pytest.raises(EmptyFiberError):
                _slow_probe(w, x)
            with pytest.raises(EmptyFiberError):
                equalisation_probe(w, x, d)
        else:
            assert fast == _slow_probe(w, x), (w, x)
            assert equalisation_probe(w, x, d) == fast  # the CLI passes its law in


def test_probe_route_rule_follows_the_table_size(monkeypatch):
    routes = []
    packed, divided = oracle._packed_quotient, oracle._divide_out
    monkeypatch.setattr(oracle, "_packed_quotient",
                        lambda *args: routes.append("packed") or packed(*args))
    monkeypatch.setattr(oracle, "_divide_out",
                        lambda *args: routes.append("dict") or divided(*args))
    limit = oracle._PACKED_SLOTS
    for big in (limit - 2, limit - 1):  # W + 1 = 2^16 slots, then one more
        w = W(1, big)
        assert equalisation_probe(w, Fraction(big + 1)) == _slow_probe(w, Fraction(big + 1))
    assert routes == ["packed", "dict"]


@pytest.mark.parametrize("dense", [True, False], ids=["packed", "dict"])
def test_probe_matches_fiber_walk(dense):
    # zero weights, repeated weights, rational weights on a common
    # denominator > 1, and n up to 10; small weights beside large ones make
    # the alternating chain longer than its table (the full-division branch)
    rng = random.Random(2718)
    vectors = [W(3, 4), W(0, 1, 2), W(2, 2, 1, 0, 2), W("1/3", "1/2", "5/6", "1/2"),
               W("1/1000", "1/500", 7, "7001/1000"), W(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]
    for n in range(2, 11):
        for denom in (1, 1, 6):
            top = 6 if n > 7 else 12
            vals = [Fraction(rng.randrange(0, top), denom) for _ in range(n)]
            if any(vals):
                vectors.append(W(*vals))
    with _route(dense):
        for w in vectors:
            _assert_probe_matches_fiber_walk(w)


def test_probe_work_is_bounded_by_the_table():
    # at x = 4 the alternating chain for the pair (2, 1) would step 10^12 / 4
    # lattice points; the probe divides the 8-entry table out instead
    w = W(1, 2, 10**12, 10**12 + 1)
    assert equalisation_probe(w, Fraction(4)) == _slow_probe(w, Fraction(4))


@pytest.mark.parametrize("dense", [True, False], ids=["packed", "dict"])
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=4),
                min_size=2, max_size=6).filter(any))
def test_probe_matches_fiber_walk_property(dense, vals):
    with _route(dense):
        _assert_probe_matches_fiber_walk(W(*vals))


def test_probe_errors():
    with pytest.raises(DomainError):
        equalisation_probe(W(1, 2), Fraction(-3))
    with pytest.raises(EmptyFiberError):
        equalisation_probe(W(1, 2), Fraction(2))


# ---------------------------------------------------------------------------
# random search
# ---------------------------------------------------------------------------

def test_lcg_determinism():
    a, b = Lcg(123), Lcg(123)
    assert [a.randint(1, 100) for _ in range(50)] == [b.randint(1, 100) for _ in range(50)]
    assert Lcg(1).next_raw() != Lcg(2).next_raw()


def test_random_search_single_coordinate():
    r = random_maximizer_search(1, T("1/2"), 5, 1)
    assert r.best_value == Dyadic(1, 1)
    assert r.gap == Dyadic(0, 0)


def test_random_search_never_beats_envelope():
    r = random_maximizer_search(3, T("1"), 300, 7)
    assert r.best_value <= Dyadic(1, 2)
    assert r.violations == ()
    r = random_maximizer_search(5, T("2"), 200, 1)
    assert r.best_value <= Dyadic(1, 5)
    assert r.violations == ()


def test_random_search_reproducible():
    assert random_maximizer_search(4, T("3/2"), 60, 9) == \
        random_maximizer_search(4, T("3/2"), 60, 9)
