"""Self-check of the benchmark: the checker catches corrupted outputs.

    python3 bench/selfcheck.py

Runs the first pattern cycle of every workload (seed 1), confirms that
every output passes the checker, then corrupts one exact field of each
output in turn and confirms that the checker rejects it, which the
harness counts as a failed query.  It also
confirms that ``BENCHMARK.json`` names exactly the metrics ``run.py``
reports.  Exits non-zero on any miss.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import itertools
import json
import sys

import run
import spans
import workloads
from check import Checker

# Exact fields per query kind: JSON result keys, or CSV columns.
JSON_FIELDS = {
    "quantile-universal": ("t_star", "value_at", "left_limit", "witness_k_left"),
    "quantile-finite": ("t_star", "value_at", "left_limit", "witness_k_left"),
    "envelope-universal": ("value", "argmax_k"),
    "envelope-finite": ("value", "argmax_k"),
    "oracle-t": ("mid_tail", "atom_count"),
    "oracle-alpha": ("t_star", "atom_count"),
    "lemma-check": ("ok", "failures"),
}
CSV_FIELDS = {"table": ("s_crit",), "compare": ("exact", "k_star"), "figure-data": ("y",)}


def _bump(value):
    """A nearby but different value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value + [max(value) + 1]
    if isinstance(value, dict):  # exact dyadic: keep it odd, move it
        return dict(value, num=str(int(value["num"]) + 2))
    return value + "1"  # a threshold such as 3/2 becomes 3/21


def corruptions(kind: str, output):
    """(field, corrupted output) pairs for one query's output."""
    if kind in JSON_FIELDS:
        payload = json.loads(output)
        for key in JSON_FIELDS[kind]:
            bad = copy.deepcopy(payload)
            bad["results"][key] = _bump(bad["results"][key])
            yield key, json.dumps(bad)
    elif kind in CSV_FIELDS:
        for key in CSV_FIELDS[kind]:
            rows = list(csv.DictReader(io.StringIO(output)))
            cell = rows[0][key]
            rows[0][key] = (f"{cell}1" if "=" not in cell
                            else cell.replace("/", "1/", 1))  # 9/256=... -> 91/256=...
            out = io.StringIO()
            writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
            yield key, out.getvalue()
    elif kind == "mid-tail":
        yield "value", dataclasses.replace(output, num=output.num + 2)
    elif kind == "random-search":
        best = output.best_value
        yield "best_value", dataclasses.replace(
            output, best_value=dataclasses.replace(best, num=best.num + 2))


def main() -> int:
    lib = run.load_library()
    checker = Checker(lib)
    missed = 0
    for workload in workloads.WORKLOADS:
        cycle = len(workloads.PATTERNS[workload])
        for query in itertools.islice(workloads.queries(workload, 1), cycle):
            rc, output = run.execute(lib, query)
            reason = f"exit code {rc}" if rc else checker.check(query, output)
            if reason is not None:
                print(f"FAIL (clean output) {query.kind}: {reason}")
                missed += 1
            for key, bad in corruptions(query.kind, output):
                caught = checker.check(query, bad) is not None
                print(f"{'caught' if caught else 'MISSED'}  {query.kind:20s} {key}")
                missed += not caught

    declared = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {name for name, _ in run.END_TO_END}
    per_layer = {name for name, _, _ in spans.LAYER_METRICS}
    for section, expected in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        names = {m["name"] for m in declared[section]}
        if names != expected:
            print(f"BENCHMARK.json {section} differs from run.py: {sorted(names ^ expected)}")
            missed += 1
    print("selfcheck", "passed" if not missed else f"failed ({missed})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
