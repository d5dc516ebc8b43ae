"""rademax benchmark harness: one workload, one seed, one run.

    python3 bench/run.py --workload quantile --seed 1 --seconds 30 --trace 0

Closed loop, one caller, one thread: each query starts when the previous
one has returned.  Queries run in process through ``rademax.cli.main``
(stdout captured), or as direct calls for the two public functions the
CLI has no command for.  The library is imported from ``src/`` of the
checkout this file lives in.

``--trace 0`` runs queries until they have taken ``--seconds`` and reports
the end-to-end metrics.  Their times are scaled to the reference machine's
quiet state by the host-speed probe (``probe.py``) timed around each query;
the summary line also prints them unscaled.  ``--trace 1`` runs the first ``TRACE_QUERIES``
queries of the stream both untraced and traced, one pattern cycle at a
time, reports the per-layer metrics and the tracing overhead, and writes
the spans to ``bench/out/``.  Each output is checked (``check.py``) as soon as its query
returns, outside the query's timed interval, and then dropped.  The last
line of stdout is the JSON result; the line before it is the run's context.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Iterator

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import spans  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402
from check import Checker  # noqa: E402

LIBRARY = ("cli", "statbridge", "envelope", "binomdist", "exactnum", "normal", "oracle")

# End-to-end metrics of an untraced run: (name, unit).  failed_frac is not
# among them: it is 0 on correct code, so it is printed in the summary line
# and carried by the result's "attempted" and "failed" counts.
END_TO_END = (("queries_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Queries in the traced run: whole pattern cycles, several seconds a pass.
TRACE_QUERIES = {"quantile": 80, "envelope": 300, "oracle": 600}

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 11

# Each fresh interpreter times the import, then the host-speed probe (three
# passes after a warm-up; their median), and prints both.
_SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import rademax.cli; "
               "took = time.perf_counter() - t; "
               "sys.path.insert(0, sys.argv[2]); import probe, statistics; probe.seconds(); "
               "print(took, statistics.median(probe.seconds() for _ in range(3)))")


def load_library() -> dict:
    """Import rademax from this checkout's src/, never from elsewhere."""
    if not (SRC / "rademax" / "cli.py").is_file():
        raise SystemExit(f"error: no rademax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = {name: importlib.import_module(f"rademax.{name}") for name in LIBRARY}
    lib["rademax"] = importlib.import_module("rademax")
    if not Path(lib["rademax"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported rademax from {lib['rademax'].__file__}, not {SRC}")
    return lib


def execute(lib: dict, query: workloads.Query) -> tuple[int, object]:
    """Run one query; CLI queries return (exit code, stdout text)."""
    if query.argv:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = lib["cli"].main(list(query.argv))
        return rc, out.getvalue()
    module, name, first, text, *rest = query.call
    fn = getattr(lib[module], name)
    return 0, fn(first, lib["exactnum"].Threshold.parse(text), *rest)


def timed(lib: dict, queries) -> Iterator[tuple[workloads.Query, float, object, str | None]]:
    """Run queries in a closed loop, yielding (query, seconds, output, error).

    Only the call is timed; the caller checks the output between queries.
    """
    clock = time.perf_counter
    for query in queries:
        start = clock()
        try:
            rc, output = execute(lib, query)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # a failed query is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        yield query, clock() - start, output, error


def _describe(query: workloads.Query, error: str) -> str:
    return f"{' '.join(map(str, query.key))}: {error}"


def setup_seconds() -> tuple[float, float]:
    """Time for a fresh interpreter to import rademax.cli, timed inside it.

    Returns the medians, scaled by the probe that each interpreter times
    after its import, and raw.
    """
    cmd = [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(BENCH)]

    def once() -> tuple[float, float]:
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
        took, probe_s = map(float, done.stdout.split())
        return took * probe.REFERENCE_S / probe_s, took

    once()  # compiles the bytecode cache, as any installed copy has
    scaled, raw = zip(*(once() for _ in range(SETUP_REPEATS)))
    return statistics.median(scaled), statistics.median(raw)


def context(args) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def end_to_end(lib: dict, args) -> tuple[dict, int, list[str]]:
    setup, setup_raw = setup_seconds()
    checker = Checker(lib)
    # 12 bytes a query: memory stays flat however many run.
    latencies = array("d")
    probe_before = array("i")  # index in probes of the probe taken before the query
    probe.seconds()  # warm-up
    probes = array("d", [probe.seconds()])
    failed = []
    busy = since_probe = 0.0
    for query, took, output, error in timed(lib, workloads.queries(args.workload, args.seed)):
        latencies.append(took)
        probe_before.append(len(probes) - 1)
        busy += took
        since_probe += took
        error = error or checker.check(query, output)
        if error:
            failed.append(_describe(query, error))
        if since_probe >= probe.INTERVAL_S or busy >= args.seconds:
            probes.append(probe.seconds())
            since_probe = 0.0
        if busy >= args.seconds:
            break
    # Each latency scaled by the mean of the two probes around its query.
    scaled = [took * 2 * probe.REFERENCE_S / (probes[i] + probes[i + 1])
              for took, i in zip(latencies, probe_before)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(latencies)
    completed = attempted - len(failed)

    def latency_metrics(times) -> dict:
        deciles = statistics.quantiles(times, n=10, method="inclusive")
        return {"queries_per_s": completed / math.fsum(times),
                "latency_p50_ms": deciles[4] * 1000, "latency_p90_ms": deciles[8] * 1000}

    values = {**latency_metrics(scaled), "setup_s": setup, "peak_rss_mb": peak_rss_mb}
    raw = {**latency_metrics(latencies), "setup_s": setup_raw}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    keys = {q.key for q in itertools.islice(workloads.queries(args.workload, args.seed), attempted)}
    print(f"{args.workload} seed={args.seed}: " + ", ".join(
        f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items())
        + f", failed_frac={len(failed) / attempted:.6g}"
        + f", queries={attempted}, repeat_frac={1 - len(keys) / attempted:.4f}")
    print("unscaled: " + ", ".join(f"{name}={value:.6g}" for name, value in raw.items())
          + f"; probes={len(probes)}, probe_median_ms={statistics.median(probes) * 1000:.4g}"
          + f" (reference {probe.REFERENCE_S * 1000:g})")
    return metrics, attempted, failed


def traced(lib: dict, args) -> tuple[dict, int, list[str]]:
    queries = list(itertools.islice(workloads.queries(args.workload, args.seed),
                                    TRACE_QUERIES[args.workload]))
    cycle = len(workloads.PATTERNS[args.workload])
    checker, tracer = Checker(lib), spans.Tracer(lib)
    failed = []
    seconds = {False: 0.0, True: 0.0}  # untraced, traced
    for first in range(0, len(queries), cycle):
        block = list(enumerate(queries[first:first + cycle], first))
        digests = {False: [], True: []}
        # Each block runs untraced and traced, alternating which goes first,
        # so that neither pass gains from warm caches or from drift.
        for traced_pass in ((False, True) if first // cycle % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install()
            try:
                for i, query in block:
                    tracer.query_id = i
                    _, took, output, error = next(timed(lib, [query]))
                    seconds[traced_pass] += took
                    digests[traced_pass].append(hash(output))
                    if not traced_pass:  # the checker calls the library: check untraced only
                        error = error or checker.check(query, output)
                        if error:
                            failed.append(_describe(query, error))
            finally:
                if traced_pass:
                    tracer.remove()
        for (_, query), plain, seen in zip(block, digests[False], digests[True]):
            if plain != seen:
                failed.append(_describe(query, "traced output differs"))
    untraced_s, traced_s = seconds[False], seconds[True]
    values = tracer.metrics()
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: (values[name], unit) for name, unit, _ in spans.LAYER_METRICS}
    out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(out, context(args))
    print(f"{args.workload} seed={args.seed}: traced {len(queries)} queries, "
          f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"overhead {traced_s - untraced_s:.3f} s; spans in {out.relative_to(BENCH.parent)}")
    return metrics, len(queries), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = load_library()

    metrics, attempted, failed = (traced if args.trace else end_to_end)(lib, args)
    for line in failed[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"context": context(args)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
