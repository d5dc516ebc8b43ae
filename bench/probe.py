"""Host-speed probe: a fixed piece of pure-Python work, timed between queries.

The benchmark's host is shared, and its speed drifts in phases of tens of
seconds (README.md, "Reference machine and noise").  ``run.py`` times this
probe at least every ``INTERVAL_S`` seconds of query time and scales each
query's latency by ``REFERENCE_S`` over the probe time around it, so the
end-to-end times read as on the reference machine in its quiet state.  The
probe is this file's own code and never calls rademax, so a change to the
library moves the scaled times exactly as it moves the raw ones.

The work mixes what the workloads do: a Pascal row of big integers
(envelope k-scans), ``Fraction`` sums (quantile atom grids) and a dict
convolution of small integers (oracle laws).
"""

from __future__ import annotations

import time
from fractions import Fraction

# Query time between two probes.
INTERVAL_S = 0.2

# Median probe time on the reference machine (README.md) in a quiet phase.
REFERENCE_S = 0.0017

_WEIGHTS = tuple(2**j for j in range(11))  # every sum distinct: 2^11 atoms


def _work() -> int:
    row = [1]
    for _ in range(160):
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    total = Fraction(0)
    for k, c in enumerate(row[::3]):
        total += Fraction(c, 3**k + 1)
    dist = {0: 1}
    for w in _WEIGHTS:
        new: dict[int, int] = {}
        for x, c in dist.items():
            new[x + w] = new.get(x + w, 0) + c
            new[x - w] = new.get(x - w, 0) + c
        dist = new
    return total.numerator % 7 + len(dist)


def seconds() -> float:
    """Time of one pass of the probe's work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
