"""Mutation check for the k-scans, the tail bound, the normal ceiling, the
binomial tail kernel and the oracle's packed tables.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only the named mutants

Each mutant replaces one exact piece of source text in a temporary copy of
``src/``, never in the working tree, and runs the pytest node ids expected
to kill it against that copy.  The mutant is killed when one of them fails
or the run passes its timeout, and survives when they all pass.  A control
run of the unmutated copy first checks that the copy is what the tests
import and that every listed test passes there.

The exit status is 1 when a must-kill mutant survives, when a mutant's old
text no longer occurs exactly once in its file (a refactor must update the
list), when pytest cannot run a listed node id, or when the control run
fails.  Known survivors (``must_kill=False``) are reported, never fatal.

Standard library only.  pytest does not collect this directory
(``testpaths = ["tests"]``), and a full run takes minutes, so it is not
part of the Tier-1 suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

BINOM = "src/rademax/binomdist.py"
ENV = "src/rademax/envelope.py"
NORMAL = "src/rademax/normal.py"
ORACLE = "src/rademax/oracle.py"
T_BINOM = "tests/test_binomdist.py::"
T_ENV = "tests/test_envelope.py::"
T_NORMAL = "tests/test_normal.py::"
T_ORACLE = "tests/test_oracle.py::"


class Mutant(NamedTuple):
    name: str
    file: str          # relative to the repository root
    old: str           # must occur exactly once in the file
    new: str
    kills: tuple[str, ...]   # pytest node ids expected to fail
    timeout: float = 120.0   # seconds for the whole pytest run
    must_kill: bool = True


MUTANTS = (
    # -- the tail bound and the normal ceiling --------------------------------
    Mutant("tail-bound-shift-halved", ENV,
           "math.isqrt((1 << 2 * prec + 2) // k)",
           "math.isqrt((1 << 2 * prec) // k)",
           (T_ENV + "test_tail_ceiling_is_sound",
            T_ENV + "test_float_prescreen_never_delays_closure")),
    Mutant("no-t-sqrt-k-guard", ENV,
           "    if p * k <= 4 * q:\n        return None\n",
           "",
           (T_ENV + "test_tail_ceiling_is_sound",)),
    Mutant("series-negative-terms-rounded-down", NORMAL,
           "total -= -(-hi // (2 * n + 1))",
           "total -= lo // (2 * n + 1)",
           (T_NORMAL + "test_upper_tail_ceiling_against_mpmath",)),
    Mutant("ceiling-two-units-low", NORMAL,
           "return (1 << (prec - 1)) - ((c * max(total, 0)) >> prec)",
           "return (1 << (prec - 1)) - ((c * max(total, 0)) >> prec) - 2",
           (T_NORMAL + "test_upper_tail_ceiling_against_mpmath",
            T_NORMAL + "test_upper_tail_ceiling_edges")),
    Mutant("series-stopped-at-1e5-units", NORMAL,
           "if hi < 2 * n + 1 and",
           "if hi < 100000 and",
           (T_NORMAL + "test_upper_tail_ceiling_against_mpmath",
            T_ENV + "test_tail_ceiling_is_sound"),
           must_kill=False),   # still sound, still within 1e-9 at the precision used
    # -- the float pre-screen ---------------------------------------------------
    Mutant("prescreen-ten-percent-late", ENV,
           "return 4.0 / (x - quantile) ** 2",
           "return 4.4 / (x - quantile) ** 2",
           (T_ENV + "test_reference_grid_closure_points",
            T_ENV + "test_float_prescreen_never_delays_closure")),
    Mutant("tail-scan-closes-on-prescreen", ENV,
           "if ceiling is not None and _cmp_raw(*ceiling, best_num, best_exp) < 0:",
           "if True:",
           (T_ENV + "test_float_prescreen_never_delays_closure",)),
    Mutant("crossing-scan-closes-on-prescreen", ENV,
           "if ceiling is not None and ceiling[0] * den <= num << ceiling[1]:",
           "if True:",
           (T_ENV + "test_float_prescreen_never_delays_closure",)),
    # -- the fused tail scan ----------------------------------------------------
    Mutant("weak-guard-without-atom", ENV,
           "if (c > 0 or atom_c) and (",
           "if c > 0 and (",
           (T_ENV + "test_fused_scan_matches_direct_sums",)),
    Mutant("weak-guard-without-c", ENV,
           "if (c > 0 or atom_c) and (",
           "if atom_c and (",
           (T_ENV + "test_fused_scan_matches_direct_sums",)),
    Mutant("tail-scan-closes-on-weak-best", ENV,
           "_cmp_raw(*ceiling, best_num, best_exp) < 0",
           "_cmp_raw(*ceiling, weak_num, weak_exp) < 0",
           (T_ENV + "test_float_prescreen_never_delays_closure",)),
    Mutant("weak-numerator-as-mid", ENV,
           "_cmp_raw(strict + atom_c, k, weak_num, weak_exp) > 0):\n"
           "            weak_num, weak_exp, witness = strict + atom_c, k, k",
           "_cmp_raw(num, k + 1, weak_num, weak_exp) > 0):\n"
           "            weak_num, weak_exp, witness = num, k + 1, k",
           (T_ENV + "test_fused_scan_matches_direct_sums",)),
    Mutant("witness-updated-on-weak-ties", ENV,
           "_cmp_raw(strict + atom_c, k, weak_num, weak_exp) > 0)",
           "_cmp_raw(strict + atom_c, k, weak_num, weak_exp) >= 0)",
           (T_ENV + "test_fused_scan_witness_is_the_smallest_k",
            T_ENV + "test_fused_scan_matches_direct_sums")),
    Mutant("tail-scan-closes-on-ceiling-equal-best", ENV,
           "_cmp_raw(*ceiling, best_num, best_exp) < 0",
           "_cmp_raw(*ceiling, best_num, best_exp) <= 0",
           (T_ENV + "test_reference_grid_closure_points",
            T_ENV + "test_certificate_soundness_extension",
            T_ENV + "test_fused_scan_matches_direct_sums"),
           must_kill=False),   # needs an irrational bound to equal a dyadic
    # -- the crossing scan ------------------------------------------------------
    Mutant("capped-when-the-scan-reaches-the-cap", ENV,
           "                closed = True\n                break\n    if best_open:",
           "                closed = k < k_to\n                break\n    if best_open:",
           (T_ENV + "test_capped_flips_where_the_bound_past_the_cap_drops_to_alpha",)),
    Mutant("capped-by-the-bound-at-the-cap", ENV,
           "ceiling = _tail_ceiling(best_a * best_a, best_k, k + 1)",
           "ceiling = _tail_ceiling(best_a * best_a, best_k, k)",
           (T_ENV + "test_capped_flips_where_the_bound_past_the_cap_drops_to_alpha",)),
    Mutant("crossing-ignores-open-tie-after-closed", ENV,
           "best_open = best_open or is_open",
           "best_open = best_open",
           (T_ENV + "test_quantile_universal_matches_breakpoint_scan",
            T_ENV + "test_quantile_finite_matches_breakpoint_scan"),
           must_kill=False),   # no tested input has a closed-then-open tie
    # -- the binomial kernel: product-tree centre, binary-split band ------------
    Mutant("legendre-exponent-off-by-one", BINOM,
           "e, q = 0, p",
           "e, q = 1, p",
           (T_BINOM + "test_central_binomial_matches_math_comb",
            T_BINOM + "test_tails_match_comb_sums_across_the_crossover")),
    Mutant("tree-drops-odd-factor", BINOM,
           "factors = [*map(operator.mul, factors[::2], factors[1::2]), *odd]",
           "factors = [*map(operator.mul, factors[::2], factors[1::2])]",
           (T_BINOM + "test_central_binomial_matches_math_comb",
            T_BINOM + "test_tails_match_comb_sums_across_the_crossover")),
    Mutant("split-t-products-swapped", BINOM,
           "t1 * q2 + p1 * t2",
           "t2 * q1 + p2 * t1",
           (T_BINOM + "test_tails_match_comb_sums_across_the_crossover",
            T_BINOM + "test_mid_tail_matches_comb_sum_property")),
    Mutant("crossover-inverted", BINOM,
           "small = k < _TREE_FROM",
           "small = k >= _TREE_FROM",
           (T_BINOM + "test_crossover_picks_the_route",)),
    # -- the oracle's packed tables and probe -----------------------------------
    # (The route rule inverted is left out: it packs a 10^12-slot table.)
    Mutant("sixteen-bit-slots", ORACLE,
           '_SLOT_CODE = "I"',
           '_SLOT_CODE = "H"',
           (T_ORACLE + "test_packed_slots_hold_the_largest_counts",)),
    Mutant("slot-guard-admits-32", ORACLE,
           "if len(iw) >= _SLOT_BITS:",
           "if len(iw) > _SLOT_BITS:",
           (T_ORACLE + "test_slot_width_guard_rejects_too_many_coordinates",)),
    Mutant("slot-guard-admits-33", ORACLE,
           "if len(iw) >= _SLOT_BITS:",
           "if len(iw) > _SLOT_BITS + 1:",
           (T_ORACLE + "test_slot_width_guard_rejects_too_many_coordinates",)),
    Mutant("route-bound-off-by-one", ORACLE,
           "return total < _PACKED_SLOTS",
           "return total <= _PACKED_SLOTS",
           (T_ORACLE + "test_route_rule_follows_the_table_size",)),
    Mutant("dense-route-unvalidated", ORACLE,
           "        table = _packed_table(iw)\n",
           "        dist = object.__new__(ExactDist)\n"
           "        for name, value in zip(('n', 'sums', 'counts', 'denom'),\n"
           "                               (w.n, *_packed_table(iw), denom)):\n"
           "            object.__setattr__(dist, name, value)\n"
           "        return dist\n",
           (T_ORACLE + "test_packed_route_is_validated",)),
    Mutant("first-doubling-sign-flipped", ORACLE,
           "g = (packed - (packed << shift)) & mask",
           "g = (packed + (packed << shift)) & mask",
           (T_ORACLE + "test_packed_quotient_matches_division",)),
    Mutant("one-doubling-step-short", ORACLE,
           "while span < bits:",
           "while 2 * span < bits:",
           (T_ORACLE + "test_packed_quotient_matches_division",)),
    Mutant("slot-view-parity-dropped", ORACLE,
           "if m & 1 or not 0 <= m <= 2 * self.top:",
           "if not 0 <= m <= 2 * self.top:",
           (T_ORACLE + "test_slot_view_reads_like_a_dict",)),
    Mutant("no-fallback-to-full-division", ORACLE,
           "    if (top - y) // (2 * a) >= len(table):\n"
           "        return _divide_out(sorted(table.items(), reverse=True), a).get(y, 0)\n",
           "",
           (T_ORACLE + "test_probe_work_is_bounded_by_the_table",),
           timeout=60.0),
    Mutant("probe-chain-from-signed-y", ORACLE,
           "    y = abs(y)\n    if (top - y)",
           "    if (top - y)",
           (T_ORACLE + "test_probe_matches_fiber_walk",
            T_ORACLE + "test_probe_some_direction_always_works"),
           must_kill=False),   # the quotient is symmetric: it changes speed only
)


def _pytest(src: Path, node_ids: tuple[str, ...], timeout: float) -> str:
    """'passed', 'failed', 'timeout' or 'error ...' for node_ids run on src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *node_ids]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode in (0, 1):
        return ("passed", "failed")[done.returncode]
    return f"error (pytest exit {done.returncode}): {done.stdout.strip()[-300:]}"


def _copy_src(workdir: Path) -> Path:
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _control(workdir: Path, mutants: list[Mutant]) -> str | None:
    """None when the unmutated copy is imported and passes every listed test."""
    src = _copy_src(workdir / "control")
    where = subprocess.run(
        [sys.executable, "-c", "import rademax; print(rademax.__file__)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(src)):
        return f"the tests would import {where.stdout.strip() or where.stderr}"
    node_ids = tuple(dict.fromkeys(n for m in mutants for n in m.kills))
    outcome = _pytest(src, node_ids, sum(m.timeout for m in mutants))
    return None if outcome == "passed" else f"unmutated copy: {outcome}"


def _run(mutant: Mutant, workdir: Path) -> str:
    src = _copy_src(workdir / mutant.name)
    path = src.parent / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"stale (old text found {found} times)"
    path.write_text(text.replace(mutant.old, mutant.new))
    outcome = _pytest(src, mutant.kills, mutant.timeout)
    shutil.rmtree(src)
    return {"failed": "killed", "timeout": "killed (timeout)",
            "passed": "survived"}.get(outcome, outcome)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    mutants = [known[name] for name in args.names] or list(MUTANTS)
    bad = 0
    counts: Counter = Counter()
    with tempfile.TemporaryDirectory(prefix="rademax-mutants-") as tmp:
        problem = _control(Path(tmp), mutants)
        if problem:
            print(f"control run failed: {problem}")
            return 1
        for m in mutants:
            start = time.perf_counter()
            outcome = _run(m, Path(tmp))
            fatal = not outcome.startswith("killed") and (
                m.must_kill or outcome != "survived")
            bad += fatal
            key = {"killed (timeout)": "timed out"}.get(outcome, outcome.split(" ")[0])
            counts[key] += 1
            tag = "" if m.must_kill else "  (known survivor)"
            print(f"{'FAIL' if fatal else 'ok  '}  {m.name}: {outcome}{tag}"
                  f"  [{time.perf_counter() - start:.1f} s]", flush=True)
    print(f"{len(mutants)} mutants: "
          + ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
          + f"; {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
