"""Best-of-N times of the triple scan and of the interval sweep, as one JSON object.

Run from the root of a repvar checkout:

    PYTHONPATH=src python3 tools/scan_times.py

The "interval" entry times ``density.interval_coprime(d, case)`` for every
d in 2000..3499 and each case 1, 2, 3, as [best milliseconds, number of None
results].  It runs first, before the scans, and takes the best of 1,000
sweeps of about 3 ms each: on a shared 2-vCPU box slow phases last seconds,
and a best of 3 read either about 3.5 or about 6 ms from run to run of the
same code.

Then ``density.scan_hyperbolic_triples(dmax)`` is timed for dmax 40, 60, 120
and 200 in ``SCAN_ROUNDS`` rounds, each scanning every dmax once, so that a
slow phase of the box is spread over all four entries instead of sinking
one; a best of 3 per dmax, one dmax after the other, read dmax 200 anywhere
from 699 to 1244 ms over nine runs of one commit.  Each entry is [best
milliseconds, number of triples with no strict witness].
"""

from __future__ import annotations

import json
import platform
from time import perf_counter

from repvar.density import interval_coprime, scan_hyperbolic_triples

SCAN_ROUNDS = 20
INTERVAL_REPS = 1000


def best_of(runs: dict, rounds: int) -> dict:
    """{key: [best milliseconds, size of the result]} over ``rounds`` rounds
    that each call every run once, in order."""
    times = {key: [] for key in runs}
    sizes = {}
    for _ in range(rounds):
        for key, run in runs.items():
            start = perf_counter()
            sizes[key] = len(run())
            times[key].append(perf_counter() - start)
    return {key: [round(min(times[key]) * 1e3, 1), sizes[key]] for key in runs}


def interval_misses() -> list:
    return [
        (d, case) for d in range(2000, 3500) for case in (1, 2, 3)
        if interval_coprime(d, case) is None
    ]


if __name__ == "__main__":
    interval = best_of({"interval": interval_misses}, INTERVAL_REPS)["interval"]
    scans = {
        str(dmax): lambda dmax=dmax: scan_hyperbolic_triples(dmax) for dmax in (40, 60, 120, 200)
    }
    print(json.dumps({
        "python": platform.python_version(),
        "scan": best_of(scans, SCAN_ROUNDS),
        "interval": interval,
    }))
