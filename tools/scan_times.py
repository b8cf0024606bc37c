"""Best-of-3 times of the hyperbolic-triple scan, as one JSON object.

Run from the root of a repvar checkout:

    PYTHONPATH=src python3 tools/scan_times.py

For each dmax in 40, 60, 120 and 200 it times
``density.scan_hyperbolic_triples(dmax)`` three times.  Each entry is
[best milliseconds, number of triples with no strict witness].
"""

from __future__ import annotations

import json
import platform
from time import perf_counter

from repvar.density import scan_hyperbolic_triples

REPS = 3


def best_of(dmax: int) -> list:
    times = []
    for _ in range(REPS):
        start = perf_counter()
        failures = scan_hyperbolic_triples(dmax)
        times.append(perf_counter() - start)
    return [round(min(times) * 1e3, 1), len(failures)]


if __name__ == "__main__":
    print(json.dumps({
        "python": platform.python_version(),
        "scan": {str(dmax): best_of(dmax) for dmax in (40, 60, 120, 200)},
    }))
