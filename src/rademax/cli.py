"""Command-line surface with reproducible, machine-readable output.

Every command prints either a JSON envelope

    {"command": ..., "inputs": ..., "results": ..., "version": ...}

with a fixed key order, or raw CSV for the table-shaped commands.
Exact dyadic values appear as {"num": string, "exp": int} objects plus
their num/2^exp and round-half-even decimal renderings, so nothing is
lost in transport.  Identical invocations produce byte-identical bytes.
``--threads`` is accepted and ignored; output never depends on it, and it
is not echoed.

Exit codes: 0 success, 2 usage or parse error, 3 domain error; 1 with
no traceback when the reader closes stdout before the output is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .envelope import (
    TruncationPolicy,
    envelope_mid_tail,
    quantile_finite,
    quantile_universal,
    universal_envelope,
)
from .errors import DomainError, EmptyFiberError, ParseError
from .exactnum import Dyadic, Threshold, parse_ratio

# ``oracle`` and ``statbridge`` are imported inside the handlers that run
# them, so that ``quantile`` and ``envelope`` never pay for their import.

DECIMAL_DIGITS = 6


def _dyadic_json(d: Dyadic) -> dict:
    dyadic = d.dyadic_str()  # first: it checks the digit limit for both integers
    return {
        "num": str(d.num),
        "exp": d.exp,
        "dyadic": dyadic,
        "decimal": d.to_decimal(DECIMAL_DIGITS),
    }


def _emit(command: str, inputs: dict, results: dict) -> str:
    payload = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }
    return json.dumps(payload, indent=2)


def _parse_alpha(text: str) -> Fraction:
    return parse_ratio(text)


def _parse_weights(text: str) -> WeightVector:
    from .oracle import WeightVector
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ParseError("empty weight list")
    return WeightVector(tuple(parse_ratio(p) for p in parts))


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"bad integer {text!r}") from exc


def _parse_threshold_list(text: str) -> list[Threshold]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ParseError("empty threshold list")
    return [Threshold.parse(p) for p in parts]


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(k_cap=args.k_cap)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_envelope(args) -> str:
    t = Threshold.parse(args.t)
    if args.universal:
        result = universal_envelope(t, _policy(args))
        mode = "universal"
    else:
        result = envelope_mid_tail(args.n, t)
        mode = "finite"
    inputs = {"t": str(t), "mode": mode, "n": args.n, "k_cap": args.k_cap}
    results = {
        "value": _dyadic_json(result.value),
        "argmax_k": list(result.argmax_k),
        "k_searched": result.k_searched,
        "certificate": result.certificate,
        "warning": result.warning,
    }
    if args.format == "csv":
        argmax = ";".join(str(k) for k in result.argmax_k)
        return ("t,value_dyadic,value_decimal,argmax_k,k_searched,certificate\n"
                f"{t},{result.value.dyadic_str()},"
                f"{result.value.to_decimal(DECIMAL_DIGITS)},{argmax},"
                f"{result.k_searched},{result.certificate}")
    return _emit("envelope", inputs, results)


def _cmd_quantile(args) -> str:
    alpha = _parse_alpha(args.alpha)
    if args.universal:
        result = quantile_universal(alpha, _policy(args))
        mode = "universal"
    else:
        result = quantile_finite(args.n, alpha)
        mode = "finite"
    inputs = {"alpha": str(alpha), "mode": mode, "n": args.n, "k_cap": args.k_cap}
    results = {
        "t_star": str(result.t_star),
        "t_star_float": float(result.t_star),
        "value_at": _dyadic_json(result.value_at),
        "left_limit": _dyadic_json(result.left_limit),
        "witness_k_left": result.witness_k_left,
        "capped": result.capped,
    }
    return _emit("quantile", inputs, results)


def _cmd_table(args) -> str:
    from . import statbridge
    ns = [_parse_int(p) for p in args.ns.split(",") if p.strip() != ""]
    alphas = [_parse_alpha(p) for p in args.alphas.split(",") if p.strip() != ""]
    if not ns or not alphas:
        raise ParseError("empty --ns or --alphas list")
    table = statbridge.critical_table(ns, alphas)
    if args.format == "json":
        rows = [{
            "n": r.n,
            "alpha": str(r.alpha),
            "s_crit": str(r.s_crit),
            "t_crit": r.t_crit,
            "value_at": _dyadic_json(r.value_at),
            "left_limit": _dyadic_json(r.left_limit),
        } for r in table.rows]
        inputs = {"ns": ns, "alphas": [str(a) for a in alphas]}
        return _emit("table", inputs, {"rows": rows})
    return table.to_csv().rstrip("\n")


def _cmd_compare(args) -> str:
    from . import statbridge
    grid = (_parse_threshold_list(args.t_grid) if args.t_grid is not None
            else list(statbridge.FIGURE_GRID))
    rows = statbridge.comparison_table(grid, _policy(args))
    if args.format == "json":
        payload = [{
            "t": str(r.t),
            "k_star": r.k_star,
            "exact": _dyadic_json(r.exact_value),
            "hoeffding": r.hoeffding,
            "ratio": r.ratio,
            "gaussian": r.gaussian_tail,
        } for r in rows]
        inputs = {"t_grid": [str(t) for t in grid], "k_cap": args.k_cap}
        return _emit("compare", inputs, {"rows": payload})
    return statbridge.comparison_csv(rows).rstrip("\n")


def _cmd_oracle(args) -> str:
    from .oracle import enumerate_dist, normalized_mid_quantile, normalized_mid_tail
    weights = _parse_weights(args.weights)
    dist = enumerate_dist(weights)
    inputs: dict = {"weights": [str(x) for x in weights.w]}
    if args.t is not None:
        t = Threshold.parse(args.t)
        inputs["t"] = str(t)
        value = normalized_mid_tail(weights, t, dist)
        results = {"mid_tail": _dyadic_json(value), "atom_count": len(dist.counts)}
    else:
        alpha = _parse_alpha(args.alpha)
        inputs["alpha"] = str(alpha)
        t_star = normalized_mid_quantile(weights, alpha, dist)
        results = {"t_star": str(t_star), "t_star_float": float(t_star),
                   "atom_count": len(dist.counts)}
    return _emit("oracle", inputs, results)


def _probe_json(report) -> dict:
    out = {
        "applicable": report.applicable,
        "x": str(report.x),
        "verdict": report.verdict,
    }
    if not report.applicable:
        out["reason"] = report.reason
        return out
    out.update({
        "normalized_verdict": report.normalized_verdict,
        "fiber_size": report.fiber_size,
        "pair": list(report.pair),
        "direction": report.direction,
        "n_pos": report.n_pos,
        "n_neg": report.n_neg,
        "n_zero": report.n_zero,
        "upper_median_slope": str(report.upper_median_slope),
        "slopes": [[str(v), c] for v, c in report.slopes],
        "all_pairs": [{
            "pair": [p.i, p.j],
            "direction": p.direction,
            "n_pos": p.n_pos,
            "n_neg": p.n_neg,
            "n_zero": p.n_zero,
            "upper_median_slope": str(p.upper_median_slope),
            "verdict": p.verdict,
            "normalized_median": str(p.normalized_median),
            "normalized_verdict": p.normalized_verdict,
        } for p in report.all_pairs],
    })
    return out


def _probe_any_scale(weights: WeightVector, x: Fraction):
    """Probe at x in the raw scale, else in unit-norm scale when that is
    rational (the verdict is invariant under positive rescaling of w)."""
    from .oracle import WeightVector, equalisation_probe
    try:
        return equalisation_probe(weights, x)
    except EmptyFiberError:
        norm_sq = weights.norm_sq
        root_num = math.isqrt(norm_sq.numerator)
        root_den = math.isqrt(norm_sq.denominator)
        if root_num * root_num != norm_sq.numerator \
                or root_den * root_den != norm_sq.denominator:
            raise
        norm = Fraction(root_num, root_den)
        unit = WeightVector(tuple(w / norm for w in weights.w))
        return equalisation_probe(unit, x)


def _cmd_lemma_check(args) -> str:
    from .oracle import Lcg, WeightVector, enumerate_dist, equalisation_probe, require_size
    if args.weights is not None:
        if args.x is None:
            raise ParseError("--weights requires --x")
        weights = _parse_weights(args.weights)
        x = parse_ratio(args.x)
        report = _probe_any_scale(weights, x)
        inputs = {"weights": [str(w) for w in weights.w], "x": str(x)}
        return _emit("lemma-check", inputs, {"report": _probe_json(report)})

    if args.n is None or args.trials is None or args.seed is None:
        raise ParseError("random mode requires --n, --trials and --seed")
    if args.n < 2:
        raise DomainError("n must be >= 2 for the probe")
    require_size(args.n)
    if args.trials < 1:
        raise DomainError("trials must be >= 1")
    rng = Lcg(args.seed)
    failures = []
    normalized_failures = []
    checked = 0
    for _ in range(args.trials):
        while True:
            values = tuple(rng.randint(1, 100) for _ in range(args.n))
            if len(set(values)) > 1:
                break
        weights = WeightVector(values)
        dist = enumerate_dist(weights)
        pos_sums = [s for s in dist.sums if s > 0]
        x = Fraction(pos_sums[rng.randint(0, len(pos_sums) - 1)], dist.denom)
        report = equalisation_probe(weights, x, dist)
        checked += 1
        if not report.verdict:
            failures.append({"weights": [str(w) for w in weights.w], "x": str(x),
                             "report": _probe_json(report)})
        elif not any(p.normalized_verdict for p in report.all_pairs):
            # every pair needed the opposite rotation sign: the fixed
            # e_j-aligned direction (majority/bias argument) fails here
            normalized_failures.append({"weights": [str(w) for w in weights.w],
                                        "x": str(x)})
    inputs = {"n": args.n, "trials": args.trials, "seed": args.seed}
    results = {"checked": checked, "failures": len(failures),
               "failed_instances": failures,
               "normalized_direction_failures": len(normalized_failures),
               "normalized_failure_instances": normalized_failures,
               "ok": not failures}
    return _emit("lemma-check", inputs, results)


def _cmd_figure_data(args) -> str:
    from . import statbridge
    points = statbridge.figure_data(args.which, _policy(args))
    lines = ["t,y"]
    for x, y in points:
        y_text = str(int(y)) if args.which == "kstar" else f"{y:.10g}"
        lines.append(f"{x:.10g},{y_text}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, k_cap: bool = True) -> None:
    if k_cap:
        p.add_argument("--k-cap", dest="k_cap", type=int, default=4096,
                       help="hard cap on the support-size search (default 4096)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored; output never depends on it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rademax",
        description="Exact worst-case mid-tail envelopes of weighted "
                    "Rademacher sums under the unit L2 constraint.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("envelope", help="mid-tail envelope at a threshold")
    p.add_argument("--t", required=True, metavar="THRESH",
                   help="threshold: INT | INT/INT | DECIMAL | sqrt(INT) | sqrt(INT/INT)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int, help="finite search over k <= n")
    g.add_argument("--universal", action="store_true",
                   help="search all k with certified truncation")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)
    p.set_defaults(handler=_cmd_envelope)

    p = sub.add_parser("quantile", help="smallest threshold with envelope <= alpha")
    p.add_argument("--alpha", required=True, help="level in (0, 1/2): RATIO or DECIMAL")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--universal", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_quantile)

    p = sub.add_parser("table", help="critical-value table for (n, alpha) cells")
    p.add_argument("--ns", required=True, help="comma-separated sample sizes")
    p.add_argument("--alphas", required=True, help="comma-separated levels")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p, k_cap=False)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("compare", help="envelope versus classical bounds")
    p.add_argument("--t-grid", dest="t_grid", default=None,
                   help="comma-separated thresholds (default: published grid)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("oracle", help="brute-force law of an arbitrary weight vector")
    p.add_argument("--weights", required=True, help="comma-separated ratios")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--t", metavar="THRESH")
    g.add_argument("--alpha")
    _add_common(p, k_cap=False)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("lemma-check", help="fiber-slope equalisation probe")
    p.add_argument("--weights", help="comma-separated ratios")
    p.add_argument("--x", help="positive atom value (ratio)")
    p.add_argument("--n", type=int, help="random mode: coordinates per instance")
    p.add_argument("--trials", type=int, help="random mode: instance count")
    p.add_argument("--seed", type=int, help="random mode: generator seed")
    _add_common(p, k_cap=False)
    p.set_defaults(handler=_cmd_lemma_check)

    p = sub.add_parser("figure-data", help="plot-ready envelope/ratio/kstar points")
    p.add_argument("--which", required=True, choices=["envelope", "ratio", "kstar"])
    _add_common(p)
    p.set_defaults(handler=_cmd_figure_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 3
    try:
        output = args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(output)
    return 0


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: send the unwritten rest to devnull, so that
        # the flush at interpreter exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
