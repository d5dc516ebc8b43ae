"""Seeded query generators for the three benchmark workloads.

Each workload is an endless stream of queries built from ``--seed`` alone.
Most queries are README-style argv lists for ``rademax.cli.main``; the two
public functions the CLI has no command for (``binomdist.mid_tail`` and
``oracle.random_maximizer_search``) are called directly.

The stream repeats a fixed pattern of query classes, so every prefix of
it holds each class in a fixed share.  Within a class, input sizes come
from a Kronecker (R_d) low-discrepancy sequence with a seeded offset, so
every prefix also spreads its sizes evenly over the class's range.  Runs
with different seeds, or of different lengths, therefore see the same mix
of cheap and costly queries, and the latency percentiles fall inside the
same class on every seed.  The shares are chosen so that p90 lies well
inside one class (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

WORKLOADS = ("quantile", "envelope", "oracle")


@dataclass(frozen=True)
class Query:
    """One query: a CLI argv, or a direct library call, plus its inputs.

    ``params`` holds the generated inputs in exact form for the checker,
    which never trusts the inputs the program echoes back.
    """

    kind: str
    argv: tuple[str, ...] = ()
    call: tuple = ()
    params: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> tuple:
        return self.argv or self.call


class _Points:
    """R_d Kronecker sequence in [0, 1)^d starting at a seeded offset."""

    def __init__(self, rng: random.Random, dims: int):
        phi = 2.0
        for _ in range(40):  # root of x^(d+1) = x + 1 by fixed-point iteration
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self._steps = [phi ** -(j + 1) for j in range(dims)]
        self._point = [rng.random() for _ in range(dims)]

    def next(self) -> list[float]:
        self._point = [(x + s) % 1.0 for x, s in zip(self._point, self._steps)]
        return self._point


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _int_log_uniform(u: float, lo: int, hi: int) -> int:
    return min(hi, int(_log_uniform(u, lo, hi + 1)))


def _level(u: float, lo: float = 0.01, hi: float = 0.25) -> Fraction:
    """A level alpha in [lo, hi], log-uniform, exact to six decimals."""
    return Fraction(round(_log_uniform(u, lo, hi) * 10**6), 10**6)


def _level_text(alpha: Fraction) -> str:
    """The six-decimal DECIMAL form of a level made by ``_level``."""
    micro = int(alpha * 10**6)
    return f"{micro // 10**6}.{micro % 10**6:06d}"


# Threshold grammar forms, cycled per query.  INT and sqrt(INT) admit only a
# handful of values in [1, 7/2], so each takes one draw in 101: they are where
# the workloads' few repeated queries come from.
_FORMS = ("int", "sqrt_int") + ("decimal", "ratio", "sqrt_ratio") * 33


_PRIMES = tuple(p for p in range(101, 1000) if all(p % d for d in range(2, 32)))


def _threshold_text(x: float, form: str, rng: random.Random) -> str:
    """Text in the CLI threshold grammar for a value near x >= 1."""
    if form == "decimal":
        return f"{x:.4f}"
    if form == "int":
        return str(min(3, max(1, round(x))))
    if form == "sqrt_int":
        return f"sqrt({max(1, round(x * x))})"
    q = rng.choice(_PRIMES)  # a prime denominator keeps INT/INT values distinct
    if form == "ratio":
        return str(Fraction(max(q, round(x * q)), q))
    return f"sqrt({Fraction(max(q, round(x * x * q)), q)})"


def _thresholds(rng: random.Random, lo: float = 1.0, hi: float = 3.5) -> Callable[[float], str]:
    """Threshold texts in [lo, hi] for u in [0, 1), cycling the grammar forms."""
    count = 0

    def make(u: float) -> str:
        nonlocal count
        count += 1
        return _threshold_text(lo + (hi - lo) * u, _FORMS[count % len(_FORMS)], rng)

    return make


def _weights(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        w = tuple(rng.randint(1, 100) for _ in range(n))
        if len(set(w)) > 1:
            return w


# ---------------------------------------------------------------------------
# quantile: the critical-value questions a statistician asks
# ---------------------------------------------------------------------------

def _quantile_classes(rng: random.Random) -> dict[str, Callable[[], Query]]:
    univ, fin, tab = _Points(rng, 1), _Points(rng, 2), _Points(rng, 3)

    def universal() -> Query:
        (u,) = univ.next()
        alpha = _level(u)
        return Query("quantile-universal",
                     ("quantile", "--alpha", _level_text(alpha), "--universal"),
                     params={"alpha": alpha})

    def finite() -> Query:
        u, v = fin.next()
        n = _int_log_uniform(u, 10, 1000)
        alpha = _level(v)
        return Query("quantile-finite",
                     ("quantile", "--alpha", str(alpha), "--n", str(n)),
                     params={"alpha": alpha, "n": n})

    def table() -> Query:
        u, v, w = tab.next()
        ns = sorted({5 + int(55 * u), 5 + int(55 * ((u + 0.5) % 1.0))})
        alphas = sorted({_level(v, 0.02, 0.2), _level(w, 0.02, 0.2)})
        return Query("table",
                     ("table", "--ns", ",".join(map(str, ns)),
                      "--alphas", ",".join(_level_text(a) for a in alphas)),
                     params={"ns": ns, "alphas": alphas})

    return {"U": universal, "F": finite, "T": table}


# ---------------------------------------------------------------------------
# envelope: few long Pascal k-scans instead of many short ones
# ---------------------------------------------------------------------------

def _envelope_classes(rng: random.Random) -> dict[str, Callable[[], Query]]:
    univ, fin, cmp_, fig, mid = (_Points(rng, d) for d in (1, 2, 3, 1, 2))
    thr = _thresholds(rng)

    def universal() -> Query:
        (u,) = univ.next()
        t = thr(u)
        return Query("envelope-universal", ("envelope", "--t", t, "--universal"),
                     params={"t": t})

    def finite() -> Query:
        u, v = fin.next()
        n = _int_log_uniform(u, 500, 20000)
        t = thr(v)
        return Query("envelope-finite", ("envelope", "--t", t, "--n", str(n)),
                     params={"t": t, "n": n})

    def compare() -> Query:
        grid = [thr(u) for u in cmp_.next()]
        return Query("compare", ("compare", "--t-grid", ",".join(grid)),
                     params={"grid": grid})

    def figure() -> Query:
        (u,) = fig.next()
        which = ("envelope", "ratio", "kstar")[min(2, int(3 * u))]
        k_cap = _int_log_uniform((3 * u) % 1.0, 1024, 8192)
        return Query("figure-data",
                     ("figure-data", "--which", which, "--k-cap", str(k_cap)),
                     params={"which": which, "k_cap": k_cap})

    def mid_tail() -> Query:
        u, v = mid.next()
        k = _int_log_uniform(u, 2000, 20000)
        t = thr(v)
        return Query("mid-tail", call=("binomdist", "mid_tail", k, t),
                     params={"k": k, "t": t})

    return {"U": universal, "F": finite, "C": compare, "G": figure, "M": mid_tail}


# ---------------------------------------------------------------------------
# oracle: brute force over explicit sign patterns
# ---------------------------------------------------------------------------

def _oracle_classes(rng: random.Random) -> dict[str, Callable[[], Query]]:
    o_t, o_a, lem, rms = (_Points(rng, 2) for _ in range(4))
    thr = _thresholds(rng, 1.0, 3.0)

    def oracle_t() -> Query:
        u, v = o_t.next()
        w = _weights(rng, 4 + int(13 * u))
        t = thr(v)
        return Query("oracle-t",
                     ("oracle", "--weights", ",".join(map(str, w)), "--t", t),
                     params={"weights": w, "t": t})

    def oracle_alpha() -> Query:
        u, v = o_a.next()
        w = _weights(rng, 4 + int(13 * u))
        alpha = _level(v)
        return Query("oracle-alpha",
                     ("oracle", "--weights", ",".join(map(str, w)),
                      "--alpha", _level_text(alpha)),
                     params={"weights": w, "alpha": alpha})

    def lemma() -> Query:
        u, _ = lem.next()
        n = 4 + int(11 * u)
        trials = 2
        return Query("lemma-check",
                     ("lemma-check", "--n", str(n), "--trials", str(trials),
                      "--seed", str(rng.randrange(10**9))),
                     params={"n": n, "trials": trials})

    def search() -> Query:
        u, v = rms.next()
        n = 4 + int(9 * u)
        t = thr(v)
        return Query("random-search",
                     call=("oracle", "random_maximizer_search", n, t, 20,
                           rng.randrange(10**9)),
                     params={"n": n, "t": t})

    return {"T": oracle_t, "A": oracle_alpha, "L": lemma, "R": search}


# One cycle of query classes per workload.  The shares place p90 well inside
# one class: the universal quantiles on ``quantile`` (20% of queries, all
# slower than the rest), and so on (README.md has the measured layout).
PATTERNS = {
    "quantile": ("T", "F", "U", "T", "F", "T", "F", "U", "T", "F"),
    "envelope": ("U", "M", "U", "F", "C", "U", "M", "U", "F", "G"),
    "oracle": ("T", "A", "L", "T", "R", "A", "T", "L", "A", "R"),
}

_CLASSES = {
    "quantile": _quantile_classes,
    "envelope": _envelope_classes,
    "oracle": _oracle_classes,
}


def queries(workload: str, seed: int) -> Iterator[Query]:
    """The endless, seed-determined query stream of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    classes = _CLASSES[workload](rng)
    while True:
        for cls in PATTERNS[workload]:
            yield classes[cls]()
