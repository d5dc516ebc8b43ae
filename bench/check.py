"""Correctness check of benchmark outputs, run outside the timed region.

Only the exact result fields are compared: ``value``, ``argmax_k``,
``t_star``, ``value_at``, ``left_limit``, ``witness_k_left``, ``s_crit``, the
oracle's ``mid_tail``/``t_star``/``atom_count`` and the probe's
``ok``/``failures``.  Search bookkeeping (``k_searched``, ``certificate``,
``warning``, ``capped``) is not compared: faster or sharper searches may
change it by design.

Every fact is re-derived by a route other than the one that produced it:

* envelope values by ``binomdist`` direct sums at every argmax k, plus the
  strict dominance of sampled other k;
* quantiles by the sandwich ``value_at <= alpha < left_limit``, with
  ``left_limit`` re-summed at ``witness_k_left`` and ``value_at`` re-summed
  at an argmax k (the library's envelope only locates that k);
* ``binomdist.mid_tail`` by this module's own top-down binomial sum;
* oracle laws by ``dist_by_pattern_walk`` for n <= 10 and by this module's
  own convolution above that.

``check`` returns None for a correct output, else the reason it is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from fractions import Fraction

# Largest support size the checker re-sums when sampling dominance; larger
# k cost O(k^2) bit operations each and are left to the argmax checks.
SAMPLE_K_MAX = 1024

# Support sizes summed directly for the figure grid (its argmax is at most 28).
FIGURE_K_MAX = 32


class Mismatch(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


class Checker:
    """Checks query outputs against independent routes through ``lib``.

    ``lib`` maps module names (``exactnum``, ``binomdist``, ``envelope``,
    ``oracle``, ``statbridge``, ``normal``) to the imported rademax modules.
    """

    def __init__(self, lib: dict):
        self.lib = lib
        self.parse = lib["exactnum"].Threshold.parse

    def check(self, query, output) -> str | None:
        try:
            getattr(self, "_" + query.kind.replace("-", "_"))(query.params, output)
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None

    # -- shared pieces ------------------------------------------------------

    def _mid(self, k: int, t) -> Fraction:
        return self.lib["binomdist"].mid_tail(k, t).as_fraction()

    def _weak(self, k: int, t) -> Fraction:
        return self.lib["binomdist"].weak_tail(k, t).as_fraction()

    def _sample_ks(self, lo: int, hi: int) -> list[int]:
        """A few support sizes in [lo, hi]: the first ones and a spread."""
        hi = min(hi, SAMPLE_K_MAX)
        if hi < lo:
            return []
        ks = set(range(lo, min(hi, lo + 3) + 1))
        step = max(1, (hi - lo) // 3)
        ks.update(range(lo, hi + 1, step))
        ks.add(hi)
        return sorted(ks)

    def _envelope(self, t, value: Fraction, argmax: list[int], k_hi: int) -> None:
        """value is the maximum mid-tail over k <= k_hi, attained exactly at argmax."""
        k_lo = self.lib["envelope"].k_min(t)
        _require(bool(argmax), "empty argmax_k")
        for k in argmax:
            _require(self._mid(k, t) == value, f"value != mid_tail({k}, {t})")
        for k in self._sample_ks(k_lo, k_hi):
            if k not in argmax:
                _require(self._mid(k, t) < value, f"mid_tail({k}, {t}) >= value")

    def _quantile(self, alpha: Fraction, t_star, value_at: Fraction,
                  left_limit: Fraction, witness: int, n: int | None) -> None:
        """The sandwich value_at <= alpha < left_limit, each side re-summed."""
        envelope = self.lib["envelope"]
        _require(value_at <= alpha < left_limit, "sandwich value_at <= alpha < left_limit fails")
        _require(n is None or witness <= n, "witness_k_left beyond n")
        _require(self._weak(witness, t_star) == left_limit,
                 f"left_limit != weak_tail({witness}, {t_star})")
        if n is None:
            located = envelope.universal_envelope(t_star)
            k_hi = envelope.TruncationPolicy().k_cap
        else:
            located = envelope.envelope_mid_tail(n, t_star)
            k_hi = n
        k_star = located.argmax_k[0]
        _require(self._mid(k_star, t_star) == value_at,
                 f"value_at != mid_tail({k_star}, {t_star})")
        for k in self._sample_ks(envelope.k_min(t_star), k_hi):
            _require(self._mid(k, t_star) <= value_at, f"mid_tail({k}, t_star) > value_at")
            _require(self._weak(k, t_star) <= left_limit, f"weak_tail({k}, t_star) > left_limit")

    # -- quantile workload --------------------------------------------------

    def _quantile_result(self, p: dict, output: str, n: int | None) -> None:
        res = json.loads(output)["results"]
        self._quantile(p["alpha"], self.parse(res["t_star"]), _dyadic(res["value_at"]),
                       _dyadic(res["left_limit"]), res["witness_k_left"], n)

    def _quantile_universal(self, p: dict, output: str) -> None:
        self._quantile_result(p, output, None)

    def _quantile_finite(self, p: dict, output: str) -> None:
        self._quantile_result(p, output, p["n"])

    def _table(self, p: dict, output: str) -> None:
        rows = list(csv.DictReader(io.StringIO(output)))
        cells = [(n, a) for n in p["ns"] for a in p["alphas"]]
        _require(len(rows) == len(cells), "wrong number of table rows")
        for row, (n, alpha) in zip(rows, cells):
            _require(int(row["n"]) == n and Fraction(row["alpha"]) == alpha,
                     "table rows out of order")
            s = self.parse(row["s_crit"])
            k_lo = self.lib["envelope"].k_min(s)
            value = max((self._mid(k, s) for k in range(k_lo, n + 1)), default=0)
            left = max((self._weak(k, s) for k in range(k_lo, n + 1)), default=0)
            _require(value <= alpha < left, f"s_crit sandwich fails at n={n}, alpha={alpha}")

    # -- envelope workload --------------------------------------------------

    def _envelope_universal(self, p: dict, output: str) -> None:
        res = json.loads(output)["results"]
        self._envelope(self.parse(p["t"]), _dyadic(res["value"]), res["argmax_k"],
                       self.lib["envelope"].TruncationPolicy().k_cap)

    def _envelope_finite(self, p: dict, output: str) -> None:
        res = json.loads(output)["results"]
        _require(all(1 <= k <= p["n"] for k in res["argmax_k"]), "argmax_k beyond n")
        self._envelope(self.parse(p["t"]), _dyadic(res["value"]), res["argmax_k"], p["n"])

    def _compare(self, p: dict, output: str) -> None:
        rows = list(csv.DictReader(io.StringIO(output)))
        _require(len(rows) == len(p["grid"]), "wrong number of compare rows")
        k_cap = self.lib["envelope"].TruncationPolicy().k_cap
        for row, text in zip(rows, p["grid"]):
            t = self.parse(text)
            _require(self.parse(row["t"]) == t, "compare rows out of order")
            value = Fraction(row["exact"].split("=")[0])
            k_star = int(row["k_star"])
            _require(self._mid(k_star, t) == value, f"exact != mid_tail({k_star}, {t})")
            for k in range(self.lib["envelope"].k_min(t), k_star):
                _require(self._mid(k, t) < value, f"k_star={k_star} is not the smallest argmax")
            for k in self._sample_ks(k_star + 1, k_cap):  # later ties are allowed
                _require(self._mid(k, t) <= value, f"mid_tail({k}, {t}) > exact")

    def _figure_data(self, p: dict, output: str) -> None:
        """Every grid threshold peaks at k <= 28, so direct sums up to
        FIGURE_K_MAX give each envelope value and its smallest argmax."""
        rows = list(csv.DictReader(io.StringIO(output)))
        grid = self.lib["statbridge"].FIGURE_GRID
        _require(len(rows) == len(grid), "wrong number of figure rows")
        for row, t in zip(rows, grid):
            k_lo = self.lib["envelope"].k_min(t)
            mids = [self._mid(k, t) for k in range(k_lo, FIGURE_K_MAX + 1)]
            value = max(mids)
            k_star = k_lo + mids.index(value)
            for k in self._sample_ks(FIGURE_K_MAX + 1, p["k_cap"]):
                _require(self._mid(k, t) < value, f"mid_tail({k}, {t}) beats k <= {FIGURE_K_MAX}")
            y = float(row["y"])
            if p["which"] == "kstar":
                _require(y == k_star, f"kstar at t={t}")
            else:
                expected = float(value)
                if p["which"] == "ratio":
                    expected /= math.exp(-float(t) ** 2 / 2)
                _require(math.isclose(y, expected, rel_tol=1e-9), f"{p['which']} at t={t}")

    def _mid_tail(self, p: dict, result) -> None:
        t = self.parse(p["t"])
        _require(result.as_fraction() == _top_down_mid_tail(p["k"], t),
                 f"mid_tail({p['k']}, {t}) disagrees with the top-down sum")

    # -- oracle workload ----------------------------------------------------

    def _law(self, weights: tuple[int, ...]) -> Counter:
        """Pattern counts per integer sum of the weights."""
        if len(weights) <= 10:
            oracle = self.lib["oracle"]
            wv = oracle.WeightVector(tuple(Fraction(w) for w in weights))
            dist = oracle.dist_by_pattern_walk(wv)
            return Counter(dict(zip((int(v) for v in dist.values), dist.counts)))
        law = Counter({0: 1})
        for w in weights:
            step = Counter()
            for s, c in law.items():
                step[s + w] += c
                step[s - w] += c
            law = step
        return law

    def _oracle_t(self, p: dict, output: str) -> None:
        res = json.loads(output)["results"]
        w = p["weights"]
        law = self._law(w)
        _require(res["atom_count"] == len(law), "atom_count")
        _require(_dyadic(res["mid_tail"]) == _normalized_mid_tail(w, law, self.parse(p["t"])),
                 "oracle mid_tail")

    def _oracle_alpha(self, p: dict, output: str) -> None:
        res = json.loads(output)["results"]
        w = p["weights"]
        law = self._law(w)
        _require(res["atom_count"] == len(law), "atom_count")
        alpha = p["alpha"]
        cum = 0
        for s in sorted(law, reverse=True):
            cum += law[s]
            if cum * alpha.denominator >= alpha.numerator << len(w):
                break
        t_star = self.parse(res["t_star"])
        expected = Fraction(s * abs(s), sum(x * x for x in w))
        _require(t_star.signed_square == expected, "oracle t_star")

    def _lemma_check(self, p: dict, output: str) -> None:
        res = json.loads(output)["results"]
        _require(res["checked"] == p["trials"], "checked != trials")
        _require(res["ok"] is True and res["failures"] == 0, "probe reported failures")

    def _random_search(self, p: dict, report) -> None:
        n, t = p["n"], self.parse(p["t"])
        envelope_value = max(_top_down_mid_tail(k, t) for k in range(1, n + 1))
        best = _normalized_mid_tail(report.best_weights, self._law(report.best_weights), t)
        _require(report.envelope_value.as_fraction() == envelope_value, "search envelope_value")
        _require(report.best_value.as_fraction() == best, "search best_value")
        _require(not report.violations and best <= envelope_value, "search found a violation")
        _require(report.gap.as_fraction() == envelope_value - best, "search gap")


def _dyadic(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), 1 << obj["exp"])


def _top_down_mid_tail(k: int, t) -> Fraction:
    """P(S_k > t) + P(S_k = t)/2 for t > 0, summing C(k, j) from the top atom down."""
    p, q = t.sq.numerator, t.sq.denominator
    strict, coeff, j = 0, 1, 0
    while k - 2 * j > 0 and (k - 2 * j) ** 2 * q > p * k:
        strict += coeff
        coeff = coeff * (k - j) // (j + 1)
        j += 1
    a = k - 2 * j
    atom = coeff if a > 0 and a * a * q == p * k else 0
    return Fraction(2 * strict + atom, 1 << (k + 1))


def _normalized_mid_tail(weights, law: Counter, t) -> Fraction:
    """P(S > t||w||) + P(S = t||w||)/2 for t > 0 and integer weights."""
    p, q = t.sq.numerator, t.sq.denominator
    norm_sq = sum(x * x for x in weights)
    twice = 0
    for s, c in law.items():
        if s > 0:
            side = s * s * q - p * norm_sq
            twice += 2 * c if side > 0 else c if side == 0 else 0
    return Fraction(twice, 1 << (len(weights) + 1))
