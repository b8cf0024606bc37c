"""Best-of-3 times of the triple scan and of the interval sweep, as one JSON object.

Run from the root of a repvar checkout:

    PYTHONPATH=src python3 tools/scan_times.py

The "interval" entry times ``density.interval_coprime(d, case)`` for every
d in 2000..3499 and each case 1, 2, 3, as [best milliseconds, number of None
results].  It runs first, before the scans, and takes the best of 1,000
sweeps of about 3 ms each: on a shared 2-vCPU box slow phases last seconds,
and a best of 3 read either about 3.5 or about 6 ms from run to run of the
same code.

Then, for each dmax in 40, 60, 120 and 200, it times
``density.scan_hyperbolic_triples(dmax)`` three times.  Each entry is
[best milliseconds, number of triples with no strict witness].
"""

from __future__ import annotations

import json
import platform
from time import perf_counter

from repvar.density import interval_coprime, scan_hyperbolic_triples

SCAN_REPS = 3
INTERVAL_REPS = 1000


def best_of(run, reps: int) -> list:
    """[best milliseconds over reps calls of run(), the size of its result]."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        result = run()
        times.append(perf_counter() - start)
    return [round(min(times) * 1e3, 1), len(result)]


def interval_misses() -> list:
    return [
        (d, case) for d in range(2000, 3500) for case in (1, 2, 3)
        if interval_coprime(d, case) is None
    ]


if __name__ == "__main__":
    interval = best_of(interval_misses, INTERVAL_REPS)
    print(json.dumps({
        "python": platform.python_version(),
        "scan": {
            str(dmax): best_of(lambda: scan_hyperbolic_triples(dmax), SCAN_REPS)
            for dmax in (40, 60, 120, 200)
        },
        "interval": interval,
    }))
