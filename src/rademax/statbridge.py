"""Statistical layer: self-standardised S versus Student T, bound
comparisons, critical tables and figure data.

For a sample of n symmetric observations the self-standardised statistic
S = sum(X_i) / sqrt(sum(X_i^2)) relates to Student's T through

    T = S * sqrt((n - 1) / (n - S^2)),        |S| < sqrt(n),

inverted by S = T * sqrt(n / (n - 1 + T^2)).  Critical S values come
from the finite-n envelope quantiles; T values follow by the map above
and are reported as unattainable at the pole S^2 = n.

Exact envelope values stay dyadic inside the rows; floats appear only in
derived display columns (Hoeffding bound exp(-t^2/2), normal tail,
ratios).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .envelope import TruncationPolicy, quantile_finite, universal_envelope
from .errors import DomainError
from .exactnum import Dyadic, Threshold
from .normal import gaussian_upper_tail, hoeffding_bound

__all__ = [
    "ComparisonRow", "CriticalRow", "CriticalTable",
    "s_to_t", "t_to_s", "hoeffding_bound", "gaussian_upper_tail",
    "comparison_table", "critical_table", "figure_data", "FIGURE_GRID",
]

# Reference threshold grid for the comparison table and figure exports.
FIGURE_GRID: tuple[Threshold, ...] = tuple(
    Threshold.parse(s) for s in ("1", "3/2", "sqrt(3)", "2", "sqrt(5)", "sqrt(6)", "3")
)


def s_to_t(s: float, n: int) -> float:
    """Student T statistic for a self-standardised value s with n observations."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if s * s >= n:
        raise DomainError(f"|s| must be below sqrt(n)={math.sqrt(n):.6g} (pole)")
    return s * math.sqrt((n - 1) / (n - s * s))


def t_to_s(t_stat: float, n: int) -> float:
    """Inverse of s_to_t; round-trips to 1e-12 relative."""
    if n < 2:
        raise DomainError("n must be >= 2")
    return t_stat * math.sqrt(n / (n - 1 + t_stat * t_stat))


@dataclass(frozen=True)
class ComparisonRow:
    """One threshold of the envelope-versus-classical-bounds table."""

    t: Threshold
    k_star: int
    exact_value: Dyadic
    exact_decimal: str
    hoeffding: float
    ratio: float
    gaussian_tail: float


def comparison_table(t_list: tuple[Threshold, ...] | list[Threshold],
                     policy: TruncationPolicy | None = None) -> tuple[ComparisonRow, ...]:
    """Universal envelope values against the classical bounds, row per t."""
    rows = []
    for t in t_list:
        if t.sign <= 0:
            raise DomainError("comparison thresholds must be > 0")
        env = universal_envelope(t, policy)
        t_float = float(t)
        hoeff = hoeffding_bound(t_float)
        rows.append(ComparisonRow(
            t=t,
            k_star=min(env.argmax_k),
            exact_value=env.value,
            exact_decimal=env.value.to_decimal(6),
            hoeffding=hoeff,
            ratio=_ratio_to_hoeffding(env.value, t_float, hoeff),
            gaussian_tail=gaussian_upper_tail(t_float),
        ))
    return tuple(rows)


def _ratio_to_hoeffding(value: Dyadic, t: float, hoeff: float) -> float:
    """value / exp(-t^2/2).  Where either float is 0.0 or subnormal (the
    value for t above about 36.5, the bound above about 37.6), the quotient
    is taken in logarithms, which underflow for neither: ``math.log`` takes
    the dyadic's numerator at any size."""
    value_float = float(value)
    if min(value_float, hoeff) >= sys.float_info.min:
        return value_float / hoeff
    return math.exp(math.log(value.num) - value.exp * math.log(2) + t * t / 2)


def comparison_csv(rows: tuple[ComparisonRow, ...]) -> str:
    """CSV per the wire schema: t,k_star,exact,hoeffding,ratio,gaussian.

    The exact column carries both forms as DYADIC=DECIMAL, e.g.
    ``9/256=0.035156``.
    """
    lines = ["t,k_star,exact,hoeffding,ratio,gaussian"]
    for r in rows:
        exact = f"{r.exact_value.dyadic_str()}={r.exact_decimal}"
        lines.append(f"{r.t},{r.k_star},{exact},{r.hoeffding:.6f},"
                     f"{r.ratio:.6f},{r.gaussian_tail:.6f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CriticalRow:
    """Critical self-standardised value for one (n, alpha) cell.

    ``value_at`` and ``left_limit`` are the envelope's mid-tail at s_crit
    and just below it, so either rejection convention (S > s_crit, or
    S >= s_crit with the mid-p correction) can be applied downstream.
    ``t_crit`` is None when s_crit^2 == n (Student map pole).
    """

    n: int
    alpha: Fraction
    s_crit: Threshold
    t_crit: float | None
    value_at: Dyadic
    left_limit: Dyadic


@dataclass(frozen=True)
class CriticalTable:
    rows: tuple[CriticalRow, ...]

    def row(self, n: int, alpha: Fraction) -> CriticalRow:
        for r in self.rows:
            if r.n == n and r.alpha == alpha:
                return r
        raise KeyError((n, alpha))

    def to_csv(self) -> str:
        """CSV per the wire schema: n,alpha,s_crit,t_crit."""
        lines = ["n,alpha,s_crit,t_crit"]
        for r in self.rows:
            t_crit = "unattainable" if r.t_crit is None else f"{r.t_crit:.6f}"
            lines.append(f"{r.n},{r.alpha},{r.s_crit},{t_crit}")
        return "\n".join(lines) + "\n"


def critical_table(n_list, alpha_list) -> CriticalTable:
    """Critical values s_crit = finite-envelope quantile, per (n, alpha).

    One bad cell fails the whole table: the first n or (n, alpha) without a
    quantile raises its ``DomainError`` and no row is returned, so the CLI
    prints nothing and exits 3.
    """
    rows = []
    for n in n_list:
        if n < 1:
            raise DomainError("n must be >= 1")
        for alpha in alpha_list:
            q = quantile_finite(n, alpha)
            s_sq = q.t_star.sq
            if s_sq < n and n >= 2:
                t_crit = s_to_t(float(q.t_star), n)
            else:
                t_crit = None
            rows.append(CriticalRow(n, alpha, q.t_star, t_crit,
                                    q.value_at, q.left_limit))
    return CriticalTable(tuple(rows))


def figure_data(which: str,
                policy: TruncationPolicy | None = None) -> tuple[tuple[float, float], ...]:
    """Plot-ready (t, y) points on the reference grid.

    ``envelope``: universal mid-tail envelope value;
    ``ratio``: envelope / Hoeffding bound;
    ``kstar``: smallest maximising support size.
    """
    if which not in ("envelope", "ratio", "kstar"):
        raise DomainError(f"unknown figure {which!r}: expected envelope, ratio or kstar")
    points = []
    for row in comparison_table(FIGURE_GRID, policy):
        x = float(row.t)
        if which == "envelope":
            points.append((x, float(row.exact_value)))
        elif which == "ratio":
            points.append((x, row.ratio))
        else:
            points.append((x, float(row.k_star)))
    return tuple(points)
