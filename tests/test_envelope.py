"""Envelope search, certified truncation, quantiles."""

import bisect
import random
from fractions import Fraction

import mpmath
import pytest

from rademax import envelope
from rademax.binomdist import mid_tail, weak_tail
from rademax.envelope import (
    HARD_CAP_HIT,
    ZUBKOV_SEROV_CLOSED,
    TruncationPolicy,
    atom_grid,
    envelope_mid_tail,
    k_min,
    quantile_finite,
    quantile_universal,
    universal_envelope,
    _max_scan,
    _tail_ceiling,
    _tail_scan,
)
from rademax.errors import DomainError
from rademax.exactnum import Dyadic, LatticeValue, Ordering, Threshold
from rademax.normal import hoeffding_bound
from rademax.oracle import WeightVector, enumerate_dist, normalized_mid_tail

T = Threshold.parse


# ---------------------------------------------------------------------------
# k_min and the scan engine
# ---------------------------------------------------------------------------

def test_k_min_examples():
    assert k_min(T("2")) == 4
    assert k_min(T("3/2")) == 3
    assert k_min(Threshold.zero()) == 1
    assert k_min(T("sqrt(5)")) == 5
    with pytest.raises(DomainError):
        k_min(T("-1"))


@pytest.mark.parametrize("s", ["0", "1/2", "1", "3/2", "sqrt(2)", "sqrt(3)", "2",
                               "sqrt(5)", "37/20", "sqrt(9/2)", "3"])
def test_scan_engine_matches_direct_sums(s):
    # the O(1)-per-k recurrence must agree with the independent per-k sums
    t = T(s)
    k0 = k_min(t)
    for k, strict, atom_c in _tail_scan(t, k0, k0 + 60):
        assert Dyadic(2 * strict + atom_c, k + 1) == mid_tail(k, t), (s, k)
        assert Dyadic(strict + atom_c, k) == weak_tail(k, t), (s, k)


def _fused_by_direct_sums(t, k_from, k_end):
    """(max mid tail, its argmax, max weak tail, smallest k attaining it)."""
    ks = range(k_from, k_end + 1)
    mids = {k: mid_tail(k, t) for k in ks}
    weaks = {k: weak_tail(k, t) for k in ks}
    mid, weak = max(mids.values()), max(weaks.values())
    return (mid, tuple(k for k in ks if mids[k] == mid), weak,
            min(k for k in ks if weaks[k] == weak))


def test_fused_scan_matches_direct_sums():
    # both maxima of one scan against per-k sums, 64 sizes past a closed
    # stop (nothing later may tie or win) or up to an unclosed k_to
    rng = random.Random(9)
    ts = [Threshold.from_square(1, Fraction(rng.randrange(1, 91), rng.randrange(10, 31)))
          for _ in range(16)]
    # thresholds exactly on an atom, where weak and mid tails differ
    while len(ts) < 40:
        k = rng.randrange(1, 61)
        a = k - 2 * rng.randrange(0, (k + 1) // 2)
        if a * a <= 9 * k:  # t <= 3 closes before k = 410
            ts.append(LatticeValue(a, k).to_threshold())
    outcomes = set()
    for t in ts:
        for k_to in (12, 500):
            k0 = k_min(t)
            if k0 > k_to:
                continue
            mid, argmax, weak, witness, k_last, closed = _max_scan(t, k0, k_to)
            assert k_last <= k_to and (closed or k_last == k_to)
            k_end = k_last + 64 if closed else k_to
            assert (mid, argmax, weak, witness) == _fused_by_direct_sums(t, k0, k_end), (t, k_to)
            outcomes.add(closed)
    assert outcomes == {True, False}


def test_fused_scan_witness_is_the_smallest_k():
    # at t = sqrt(1/3) the weak tails of k = 1 and k = 3 tie at 1/2, the
    # largest weak tail; only k = 3 has an atom on t
    t = T("sqrt(1/3)")
    assert weak_tail(1, t) == weak_tail(3, t) == Dyadic(1, 1)
    _, _, weak, witness, _, closed = _max_scan(t, k_min(t), 4096)
    assert (weak, witness, closed) == (Dyadic(1, 1), 1, True)


# ---------------------------------------------------------------------------
# finite envelope
# ---------------------------------------------------------------------------

def test_envelope_mid_tail_examples():
    r = envelope_mid_tail(4, T("sqrt(3)"))
    assert r.value == Dyadic(1, 4) and r.argmax_k == (3, 4)
    r = envelope_mid_tail(5, T("2"))
    assert r.value == Dyadic(1, 5) and r.argmax_k == (4, 5)
    r = envelope_mid_tail(1, T("1/2"))
    assert r.value == Dyadic(1, 1) and r.argmax_k == (1,)


def test_envelope_zero_threshold_and_below_cutoff():
    r = envelope_mid_tail(5, Threshold.zero())
    assert r.value == Dyadic(1, 1) and r.argmax_k == (1, 2, 3, 4, 5)
    r = envelope_mid_tail(3, T("2"))  # cutoff needs k >= 4
    assert r.value == Dyadic(0, 0) and r.argmax_k == (1, 2, 3)


def test_envelope_result_invariants():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 14)
        t = Threshold.from_square(1, Fraction(rng.randrange(1, 20), rng.randrange(1, 6)))
        r = envelope_mid_tail(n, t)
        for k in r.argmax_k:
            assert mid_tail(k, t) == r.value
        for k in range(1, n + 1):
            if k not in r.argmax_k:
                assert mid_tail(k, t) < r.value


def test_envelope_mid_tail_matches_direct_sums():
    # the early stop at min(n, K_close) against sums over every k = 1..n
    rng = random.Random(400)
    for _ in range(12):
        n = rng.randrange(1, 401)
        t = Threshold.from_square(1, Fraction(rng.randrange(1, 160), rng.randrange(1, 13)))
        r = envelope_mid_tail(n, t)
        values = [mid_tail(k, t) for k in range(1, n + 1)]
        best = max(values)
        assert r.value == best, (n, t)
        assert r.argmax_k == tuple(k for k, v in enumerate(values, 1) if v == best), (n, t)
        assert r.k_searched <= n


def test_envelope_monotone_in_n():
    for s in ("1", "3/2", "2", "sqrt(3)"):
        t = T(s)
        prev = envelope_mid_tail(1, t).value
        for n in range(2, 25):
            cur = envelope_mid_tail(n, t).value
            assert cur >= prev
            prev = cur
        # stabilises at the universal value once n covers the argmax
        u = universal_envelope(t)
        assert envelope_mid_tail(max(u.argmax_k) + 5, t).value == u.value


# ---------------------------------------------------------------------------
# universal envelope
# ---------------------------------------------------------------------------

def test_universal_envelope_reference_values():
    cases = {
        "1": (Dyadic(1, 2), (1, 2)),
        "3/2": (Dyadic(1, 3), (3,)),
        "2": (Dyadic(9, 8), (8,)),
        "sqrt(6)": (Dyadic(23, 11), (13,)),
        "3": (Dyadic(249589, 27), (28,)),
        "1/2": (Dyadic(1, 1), (1, 3)),
    }
    for s, (value, argmax) in cases.items():
        r = universal_envelope(T(s))
        assert r.value == value, s
        assert r.argmax_k == argmax, s


def test_universal_envelope_ties_at_sqrt3():
    # P(S_7 > sqrt(3)) = (7+1)/128 = 1/16 ties with k = 3 and 4
    r = universal_envelope(T("sqrt(3)"))
    assert r.value == Dyadic(1, 4)
    assert r.argmax_k == (3, 4, 7)
    assert min(r.argmax_k) == 3


def test_universal_envelope_certificates():
    assert universal_envelope(T("2")).certificate == ZUBKOV_SEROV_CLOSED
    # t = 3 closes at k = 409, past this cap
    r = universal_envelope(T("3"), TruncationPolicy(k_cap=64))
    assert r.certificate == HARD_CAP_HIT
    assert r.warning is not None
    assert r.k_searched == 64


def _scan_max(t, k_to):
    """(max mid-tail, argmax) over k_min(t)..k_to by the scan engine alone."""
    best, argmax = None, []
    for k, strict, atom_c in _tail_scan(t, k_min(t), k_to):
        value = Dyadic(2 * strict + atom_c, k + 1)
        if best is None or value > best:
            best, argmax = value, [k]
        elif value == best:
            argmax.append(k)
    return best, tuple(argmax)


def test_certificate_soundness_extension():
    # extending a closed search 64 sizes past the stop never changes the result
    for s in ("1", "3/2", "sqrt(2)", "2", "sqrt(5)", "sqrt(6)", "3"):
        r = universal_envelope(T(s))
        assert r.certificate == ZUBKOV_SEROV_CLOSED
        assert _scan_max(T(s), r.k_searched + 64) == (r.value, r.argmax_k), s


def test_reference_grid_closure_points():
    # the first K where the tail bound drops below the envelope is k_searched + 1
    closes = {"1": 38, "3/2": 33, "sqrt(3)": 103, "2": 111, "sqrt(5)": 135,
              "sqrt(6)": 144, "3": 409, "7/2": 662}
    for s, k_close in closes.items():
        r = universal_envelope(T(s))
        assert (r.certificate, r.k_searched + 1) == (ZUBKOV_SEROV_CLOSED, k_close), s


def _ceiling_holds(t, k):
    """weak_tail(k, t) <= the exact ceiling at k, compared as integers."""
    u, prec = _tail_ceiling(t.sq.numerator, t.sq.denominator, k)
    w = weak_tail(k, t)
    return w.num << prec <= u << w.exp


@pytest.mark.parametrize("s", ["1/2", "1", "3/2", "37/20", "2", "5/2", "3", "7/2",
                               "sqrt(3)", "sqrt(5)", "sqrt(6)", "sqrt(15/2)", "2.9"])
def test_tail_ceiling_is_sound(s):
    # the bound P(S_K >= t) <= Phi-bar(t - 2/sqrt(K)) at every K <= 1500 it covers
    t = T(s)
    p, q = t.sq.numerator, t.sq.denominator
    assert _tail_ceiling(p, q, 4 * q // p) is None  # t sqrt(K) <= 2
    for k in range(4 * q // p + 1, 1501):
        assert _ceiling_holds(t, k), (s, k)


def test_tail_ceiling_with_a_halved_shift_fails():
    # Phi-bar(t - 1/sqrt(K)) is no bound: at t = 1, K = 4 it is Phi-bar(1/2),
    # the exact ceiling at t = 1, K = 16, and P(S_4 >= 1) = 5/16 exceeds it
    u, prec = _tail_ceiling(1, 1, 16)
    w = weak_tail(4, T("1"))
    assert w == Dyadic(5, 4)
    assert w.num << prec > u << w.exp


@pytest.mark.parametrize("s", ["1/2", "1", "sqrt(3)", "2", "sqrt(6)", "3", "7/2", "5/3"])
def test_float_prescreen_never_delays_closure(monkeypatch, s):
    # attempting the exact ceiling at every k gives the same stops: only the
    # exact comparison decides where a scan closes
    t = T(s)
    policy = TruncationPolicy(k_cap=800)
    alphas = [Fraction(1, d) for d in (4, 10, 20, 40, 100, 1000)] + [Fraction(3, 7)]

    def results():
        out = [universal_envelope(t, policy), envelope_mid_tail(700, t)]
        for alpha in alphas:
            out.append(quantile_universal(alpha, policy))
            out.append(quantile_finite(500, alpha))
        return out

    screened = results()
    monkeypatch.setattr(envelope, "_closing_k", lambda x, quantile: 0)
    assert results() == screened


def test_universal_envelope_monotone_in_t():
    ts = [T(s) for s in ("1/2", "1", "5/4", "3/2", "sqrt(3)", "2", "sqrt(5)", "3")]
    vals = [universal_envelope(t).value for t in ts]
    for a, b in zip(vals, vals[1:]):
        assert a >= b


def test_universal_envelope_hoeffding_dominance():
    for j in range(1, 33):
        t = Threshold.from_rational(Fraction(j, 8))
        v = float(universal_envelope(t).value)
        assert v <= hoeffding_bound(float(t)) + 1e-12


def test_universal_envelope_domain_errors():
    with pytest.raises(DomainError):
        universal_envelope(Threshold.zero())
    with pytest.raises(DomainError):
        universal_envelope(T("-1"))
    with pytest.raises(DomainError):
        universal_envelope(T("80"), TruncationPolicy(k_cap=64))


# ---------------------------------------------------------------------------
# atom grid
# ---------------------------------------------------------------------------

def test_atom_grid_examples():
    grid = atom_grid(2, Threshold.zero(), T("2"))
    assert [(v.a, v.k) for v in grid] == [(0, 2), (1, 1), (2, 2)]
    assert atom_grid(1, Threshold.zero(), T("1/2")) == ()
    assert [(v.a, v.k) for v in atom_grid(4, T("1"), T("1"))] == [(1, 1)]
    with pytest.raises(DomainError):
        atom_grid(3, T("2"), T("1"))


def test_atom_grid_sorted_dedup():
    grid = atom_grid(9, T("-2"), T("2"))
    squares = [v.signed_square for v in grid]
    assert squares == sorted(set(squares))
    # representative has the smallest k: value 1 appears as (1, 1) not (3, 9)
    rep = [v for v in grid if v.signed_square == 1]
    assert rep == [v for v in grid if (v.a, v.k) == (1, 1)]


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

def test_quantile_universal_reference_values():
    q = quantile_universal(Fraction(1, 20))
    assert q.t_star == T("2")
    q = quantile_universal(Fraction(1, 40))
    assert q.t_star == T("sqrt(5)")
    q = quantile_universal(Fraction(1, 4))
    assert q.t_star == T("1")
    assert q.value_at == Dyadic(1, 2) and q.left_limit == Dyadic(1, 1)


def test_quantile_universal_alpha_tenth_self_consistent():
    # the envelope is carried by k=3 (value 1/8) on all of (0, sqrt(3)),
    # and drops to 1/16 at sqrt(3): the level-1/10 crossing is sqrt(3)
    q = quantile_universal(Fraction(1, 10))
    assert q.t_star == T("sqrt(3)")
    assert q.value_at == Dyadic(1, 4)
    assert q.left_limit == Dyadic(1, 3)
    assert q.witness_k_left == 3


def test_quantile_sandwich_exact():
    for num, den in [(1, 20), (1, 40), (1, 10), (1, 4), (1, 13), (3, 7), (1, 100), (1, 1000)]:
        alpha = Fraction(num, den)
        q = quantile_universal(alpha)
        assert q.value_at.compare_to_ratio(alpha) is not Ordering.GT
        assert q.left_limit.compare_to_ratio(alpha) is Ordering.GT
        assert weak_tail(q.witness_k_left, q.t_star) == q.left_limit
        # the tail bound certifies every one of these at the default cap
        assert not q.capped


def test_quantile_universal_rejects_bad_alpha():
    for bad in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(-1, 5)):
        with pytest.raises(DomainError):
            quantile_universal(bad)


def test_quantile_finite_examples():
    assert quantile_finite(1, Fraction(1, 4)).t_star == T("1")
    assert quantile_finite(4, Fraction(1, 20)).t_star == T("2")
    q = quantile_finite(4, Fraction(1, 20))
    assert q.value_at == Dyadic(1, 5) and q.left_limit == Dyadic(1, 4)
    # brute scan case: the k<=3 envelope stays 1/2 until t = 1
    assert quantile_finite(3, Fraction(499, 1000)).t_star == T("1")


def _sandwich_by_direct_sums(t, ks):
    """(max mid-tail, max weak tail, smallest k attaining it) over ks."""
    value = max(mid_tail(k, t) for k in ks)
    left = max(weak_tail(k, t) for k in ks)
    witness = min(k for k in ks if weak_tail(k, t) == left)
    return value, left, witness


def test_quantile_finite_matches_breakpoint_scan():
    # independent oracle: walk the full atom grid and take the first atom
    # whose finite envelope is <= alpha; re-sum the sandwich per k there
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(1, 10)
        alpha = Fraction(rng.randrange(1, 2 ** (n + 1)), 2 ** (n + 2))
        if alpha < Fraction(1, 2 ** (n + 1)) or alpha >= Fraction(1, 2):
            continue
        grid = atom_grid(n, Threshold.zero(), T(str(n)))
        expected = None
        for v in grid:
            if v.a <= 0:
                continue
            t = v.to_threshold()
            if envelope_mid_tail(n, t).value.compare_to_ratio(alpha) is not Ordering.GT:
                expected = t
                break
        q = quantile_finite(n, alpha)
        assert expected is not None and q.t_star == expected
        value, left, witness = _sandwich_by_direct_sums(expected, range(1, n + 1))
        assert (q.value_at, q.left_limit, q.witness_k_left) == (value, left, witness)


@pytest.mark.parametrize("k_cap", [16, 64, 200])
def test_quantile_universal_matches_breakpoint_scan(k_cap):
    # independent oracle: the first atom of the k <= k_cap grid whose
    # universal envelope is <= alpha (bisection: the envelope is
    # nonincreasing), with the sandwich re-summed per k.  Small caps put
    # most levels on the hard-cap path.
    policy = TruncationPolicy(k_cap=k_cap)
    grid = [v for v in atom_grid(k_cap, Threshold.zero(), T(f"sqrt({k_cap})")) if v.a > 0]
    rng = random.Random(k_cap)
    alphas = [Fraction(1, d) for d in (4, 5, 10, 13, 20, 40, 100, 1000)]
    alphas += [Fraction(3, 7), Fraction(1, 2 ** (k_cap + 1)), Fraction(1, 2 ** (k_cap + 2))]
    alphas += [Fraction(rng.randrange(1, 500), 1000) for _ in range(6)]
    outcomes = set()
    for alpha in alphas:
        def le_alpha(v):
            value = universal_envelope(v.to_threshold(), policy).value
            return value.compare_to_ratio(alpha) is not Ordering.GT

        i = bisect.bisect_left(grid, True, key=le_alpha)
        if i < len(grid):
            t = grid[i].to_threshold()
            value, left, witness = _sandwich_by_direct_sums(t, range(1, k_cap + 1))
        if i == len(grid) or left.compare_to_ratio(alpha) is not Ordering.GT:
            # no atom qualifies, or the envelope only passes below alpha
            with pytest.raises(DomainError):
                quantile_universal(alpha, policy)
            outcomes.add("error")
            continue
        # capped: the bound for every k > k_cap, Phi-bar(t - 2/sqrt(k_cap + 1)),
        # still exceeds alpha (mpmath as the independent route)
        with mpmath.workdps(40):
            x = mpmath.sqrt(mpmath.mpf(t.sq.numerator) / t.sq.denominator) \
                - 2 / mpmath.sqrt(k_cap + 1)
            capped = (t.sq * (k_cap + 1) <= 4
                      or mpmath.ncdf(-x) > mpmath.mpf(alpha.numerator) / alpha.denominator)
        q = quantile_universal(alpha, policy)
        assert (q.t_star, q.value_at, q.left_limit, q.witness_k_left, q.capped) \
            == (t, value, left, witness, capped), alpha
        outcomes.add(capped)
    assert outcomes == {True, False, "error"}


@pytest.mark.parametrize("d", [20, 40, 100, 1000])
def test_capped_flips_where_the_bound_past_the_cap_drops_to_alpha(d):
    # capped is set exactly when Phi-bar(t* - 2/sqrt(k_cap + 1)) > alpha:
    # with K the first size whose bound is <= alpha (mpmath), k_cap = K - 1
    # closes on the scan's last step and k_cap = K - 2 does not
    alpha = Fraction(1, d)
    t = quantile_universal(alpha).t_star
    with mpmath.workdps(40):
        x = mpmath.sqrt(mpmath.mpf(t.sq.numerator) / t.sq.denominator)
        K = next(K for K in range(1, 4096) if t.sq * K > 4
                 and mpmath.ncdf(2 / mpmath.sqrt(K) - x) * d <= 1)
    below, at = (quantile_universal(alpha, TruncationPolicy(k_cap=c)) for c in (K - 2, K - 1))
    assert (below.t_star, below.capped) == (t, True)
    assert (at.t_star, at.capped) == (t, False)


def test_quantile_finite_unattainable_alpha():
    with pytest.raises(DomainError):
        quantile_finite(1, Fraction(1, 5))  # below 2^-2
    with pytest.raises(DomainError):
        quantile_finite(3, Fraction(1, 17))  # below 2^-4
    # boundary level is attainable at the top atom
    q = quantile_finite(3, Fraction(1, 16))
    assert q.t_star == T("sqrt(3)")


def test_dominance_oracle_never_beats_envelope():
    rng = random.Random(20250811)
    for n in (2, 5, 9, 12):
        env = {s: envelope_mid_tail(n, T(s)).value for s in ("1", "3/2", "2")}
        for _ in range(40):
            w = WeightVector(tuple(Fraction(rng.randrange(1, 101)) for _ in range(n)))
            dist = enumerate_dist(w)
            for s, bound in env.items():
                assert normalized_mid_tail(w, T(s), dist) <= bound


def test_dominance_200_vectors_at_n11_n12():
    # upper end of the dominance invariant, 200 draws each at t = 2
    t = T("2")
    for n in (11, 12):
        bound = envelope_mid_tail(n, t).value
        rng = random.Random(5000 + n)
        for _ in range(200):
            w = WeightVector(tuple(Fraction(rng.randrange(1, 101)) for _ in range(n)))
            assert normalized_mid_tail(w, t) <= bound
