"""Spans around the calls between rademax modules, for the traced run.

The tracer replaces each function named in ``TARGETS`` by a wrapper in
every rademax namespace that holds it: the defining module and every
module that imported the name (``cli`` imports most of the library by
name, ``statbridge`` imports from ``envelope`` and ``normal``, ``binomdist``
imports ``cmp_lattice_threshold``).  Calls that a module makes to its own
functions go through its globals, so they are caught as well; that is how
the universal-envelope evaluations inside a universal quantile are seen.

Modes:

* ``span``  - one span per call (name, start, end, parent, query id, self
  time), kept in memory and written out at the end of the run;
* ``hot``   - calls and time only, summed per parent layer.  Used for
  ``binomdist._boundary``, which the atom grid calls tens of thousands of
  times per quantile; its time still counts as a child of its parent;
* ``count`` - calls only (``exactnum.cmp_lattice_threshold``), the cheapest
  wrapper for the innermost comparison.

Self time is a span's duration minus the durations of its direct children
(one thread, so children never overlap).  The result-derived metrics
(``envelope.k_scanned`` and friends) are read from returned values, never
from inside the library.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

SPAN, HOT, COUNT = "span", "hot", "count"

# (span name, module, attribute, mode)
TARGETS = (
    ("cli.main", "cli", "main", SPAN),
    ("cli.build_parser", "cli", "build_parser", SPAN),
    ("statbridge.critical_table", "statbridge", "critical_table", SPAN),
    ("statbridge.comparison_table", "statbridge", "comparison_table", SPAN),
    ("envelope.quantile_universal", "envelope", "quantile_universal", SPAN),
    ("envelope.quantile_finite", "envelope", "quantile_finite", SPAN),
    ("envelope.universal_envelope", "envelope", "universal_envelope", SPAN),
    ("envelope.envelope_mid_tail", "envelope", "envelope_mid_tail", SPAN),
    ("binomdist._boundary", "binomdist", "_boundary", HOT),
    ("binomdist.mid_tail", "binomdist", "mid_tail", SPAN),
    ("exactnum.cmp_lattice_threshold", "exactnum", "cmp_lattice_threshold", COUNT),
    ("exactnum.Threshold.parse", "exactnum", "Threshold.parse", SPAN),
    ("normal.gaussian_upper_tail", "normal", "gaussian_upper_tail", SPAN),
    ("oracle.enumerate_dist", "oracle", "enumerate_dist", SPAN),
    ("oracle.normalized_mid_tail", "oracle", "normalized_mid_tail", SPAN),
    ("oracle.normalized_mid_quantile", "oracle", "normalized_mid_quantile", SPAN),
    ("oracle.random_maximizer_search", "oracle", "random_maximizer_search", SPAN),
    ("oracle.equalisation_probe", "oracle", "equalisation_probe", SPAN),
    ("oracle.fiber", "oracle", "fiber", SPAN),
)

# Per-layer metrics of the traced run: (name, unit, better).  Times and
# counts are totals over the traced query list.
LAYER_METRICS = (
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_parser.s", "s", "lower"),
    ("cli.main.nonzero_exits", "count", "lower"),
    ("statbridge.critical_table.s", "s", "lower"),
    ("statbridge.critical_table.self_s", "s", "lower"),
    ("statbridge.comparison_table.s", "s", "lower"),
    ("statbridge.comparison_table.self_s", "s", "lower"),
    ("envelope.quantile_universal.calls", "count", "lower"),
    ("envelope.quantile_universal.s", "s", "lower"),
    ("envelope.quantile_universal.self_s", "s", "lower"),
    ("envelope.quantile_universal.capped_ratio", "ratio", "lower"),
    ("envelope.quantile_finite.calls", "count", "lower"),
    ("envelope.quantile_finite.s", "s", "lower"),
    ("envelope.quantile_finite.self_s", "s", "lower"),
    ("envelope.universal_envelope.calls", "count", "lower"),
    ("envelope.universal_envelope.s", "s", "lower"),
    ("envelope.evals_per_quantile", "count", "lower"),
    ("envelope.envelope_mid_tail.calls", "count", "lower"),
    ("envelope.envelope_mid_tail.s", "s", "lower"),
    ("envelope.k_scanned", "count", "lower"),
    ("envelope.hard_cap_ratio", "ratio", "lower"),
    ("envelope.value_bits_max", "bits", "lower"),
    ("binomdist._boundary.calls", "count", "lower"),
    ("binomdist._boundary.s", "s", "lower"),
    ("binomdist.mid_tail.calls", "count", "lower"),
    ("binomdist.mid_tail.s", "s", "lower"),
    ("exactnum.cmp_lattice_threshold.calls", "count", "lower"),
    ("exactnum.Threshold.parse.calls", "count", "lower"),
    ("exactnum.Threshold.parse.s", "s", "lower"),
    ("normal.gaussian_upper_tail.calls", "count", "lower"),
    ("normal.gaussian_upper_tail.s", "s", "lower"),
    ("oracle.enumerate_dist.calls", "count", "lower"),
    ("oracle.enumerate_dist.s", "s", "lower"),
    ("oracle.normalized_mid_tail.s", "s", "lower"),
    ("oracle.normalized_mid_quantile.s", "s", "lower"),
    ("oracle.random_maximizer_search.s", "s", "lower"),
    ("oracle.equalisation_probe.calls", "count", "lower"),
    ("oracle.equalisation_probe.s", "s", "lower"),
    ("oracle.equalisation_probe.self_s", "s", "lower"),
    ("oracle.fiber.calls", "count", "lower"),
    ("oracle.fiber.s", "s", "lower"),
    ("oracle.fiber.patterns", "count", "lower"),
    ("oracle.fiber.hit_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Installs wrappers, records spans, and turns them into layer metrics."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []    # open spans: [id, name, child seconds]
        self._next_id = 0
        self.query_id = -1
        self.spans: list[tuple] = []    # (id, name, start, end, parent id, query id, self s)
        self._hot: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self._counts: Counter = Counter()
        self._stats: Counter = Counter()  # facts read from returned values
        self._bits_max = 0
        self._hooks = {
            "cli.main": self._on_exit_code,
            "envelope.universal_envelope": self._on_universal_envelope,
            "envelope.envelope_mid_tail": self._on_envelope,
            "envelope.quantile_universal": self._on_quantile,
            "oracle.fiber": self._on_fiber,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, mode in TARGETS:
            mod = self._modules[module]
            if "." in attr:  # a classmethod: wrap the function behind it
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                descriptor = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(descriptor.__func__, name, mode))
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, descriptor))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, mode)
            for namespace in self._modules.values():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._restore.append((namespace, key, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, fn, name: str, mode: str):
        stack, counts, clock = self._stack, self._counts, time.perf_counter
        if mode == COUNT:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        if mode == HOT:
            hot = self._hot

            def summed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = clock() - start
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[2] += took
                    cell = hot[(name, parent[1] if parent else "")]
                    cell[0] += 1
                    cell[1] += took
            return summed

        hook = self._hooks.get(name)

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[2] += took
                self.spans.append((frame[0], name, start, end,
                                   parent[0] if parent else -1,
                                   self.query_id, took - frame[2]))
            if hook is not None:
                hook(args, result)
            return result
        return spanned

    # -- facts read from returned values ------------------------------------

    def _on_exit_code(self, args, rc) -> None:
        self._stats["nonzero_exits"] += rc != 0

    def _on_envelope(self, args, result) -> None:
        k_from = self._modules["envelope"].k_min(result.t)
        self._stats["k_scanned"] += max(0, result.k_searched - k_from + 1)
        self._bits_max = max(self._bits_max, result.value.num.bit_length())

    def _on_universal_envelope(self, args, result) -> None:
        self._on_envelope(args, result)
        self._stats["universal_results"] += 1
        self._stats["hard_cap_hit"] += result.certificate == self._modules["envelope"].HARD_CAP_HIT

    def _on_quantile(self, args, result) -> None:
        self._stats["quantile_capped"] += bool(result.capped)

    def _on_fiber(self, args, result) -> None:
        self._stats["fiber_patterns"] += 1 << args[0].n
        self._stats["fiber_hits"] += len(result.configs)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        names = {span[0]: span[1] for span in self.spans}
        evals = 0
        for _, name, start, end, parent, _, self_s in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            if (name == "envelope.universal_envelope"
                    and names.get(parent) == "envelope.quantile_universal"):
                evals += 1
        # _boundary as called by the envelope layer (not via mid_tail)
        boundary = [cell for (_, parent), cell in self._hot.items()
                    if parent.startswith("envelope.")]
        stats = self._stats
        out = {
            "cli.main.nonzero_exits": stats["nonzero_exits"],
            "envelope.evals_per_quantile":
                _ratio(evals, calls["envelope.quantile_universal"]),
            "envelope.quantile_universal.capped_ratio":
                _ratio(stats["quantile_capped"], calls["envelope.quantile_universal"]),
            "envelope.k_scanned": stats["k_scanned"],
            "envelope.hard_cap_ratio":
                _ratio(stats["hard_cap_hit"], stats["universal_results"]),
            "envelope.value_bits_max": self._bits_max,
            "binomdist._boundary.calls": sum(c[0] for c in boundary),
            "binomdist._boundary.s": sum(c[1] for c in boundary),
            "exactnum.cmp_lattice_threshold.calls":
                self._counts["exactnum.cmp_lattice_threshold"],
            "oracle.fiber.patterns": stats["fiber_patterns"],
            "oracle.fiber.hit_ratio":
                _ratio(stats["fiber_hits"], stats["fiber_patterns"]),
        }
        for metric, _, _ in LAYER_METRICS:
            if metric in out or metric.startswith("trace."):
                continue
            span_name, _, field = metric.rpartition(".")
            source = {"calls": calls, "s": total, "self_s": own}[field]
            out[metric] = source[span_name]
        return out

    def write_spans(self, path: Path, context: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((span[2] for span in self.spans), default=0.0)
        with path.open("w") as fh:
            fh.write(json.dumps({"context": context}) + "\n")
            for sid, name, start, end, parent, query, self_s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - base,
                    "end": end - base, "parent": parent, "query": query,
                    "self": self_s}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
