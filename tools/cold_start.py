"""Cold-start cost of each CLI subcommand, as one JSON object.

Run from the root of a repvar checkout:

    PYTHONPATH=src python3 tools/cold_start.py [RUNS]

For one fixed argv per leaf subcommand (two for ``upper-bound``, a root
system and ``SO(n)``), it times ``python -m repvar ARGV`` as a fresh
process, interpreter start included, RUNS times (default 9),
taking the argvs in turn so that drift spreads over all of them.  Each entry
is [median milliseconds, the repvar modules that call loads];
``python_pass_ms`` is the median of ``python -c pass`` over the same rounds.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from time import perf_counter

ARGVS = {
    "euler": ["euler", "g=0;d=2,3,7"],
    "validate": ["validate", "g=0;d=2,4,6"],
    "z1 principal": ["z1", "principal", "g=0;d=2,3,7", "E8"],
    "z1 alternating": ["z1", "alternating", "g=0;d=2,3,7", "--degree", "21"],
    "upper-bound": ["upper-bound", "g=0;d=2,3,7", "G2"],
    "upper-bound SO": ["upper-bound", "g=0;d=2,3,7", "SO(13)"],
    "density": ["density", "g=0;d=2,3,7"],
    "triangle-witness": ["triangle-witness", "2", "3", "7"],
    "scan-triples": ["scan-triples", "--dmax", "24"],
    "interval": ["interval", "7", "--case", "1"],
    "verify-appendix": ["verify-appendix", "--entry", "2,6,10"],
    "tables": ["tables", "defect"],
}

# runs main in-process, then prints the loaded repvar modules on its last line
PROBE = """\
import sys
from repvar.cli import main
main(sys.argv[1:])
print(" ".join(sorted(k for k in sys.modules if k.split(".")[0] == "repvar")))
"""


def seconds(cmd: list[str]) -> float:
    start = perf_counter()
    subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True)
    return perf_counter() - start


def loaded(argv: list[str]) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, check=True,
    ).stdout
    return [m.removeprefix("repvar.") for m in out.splitlines()[-1].split()]


def median_ms(times: list[float]) -> float:
    return round(statistics.median(times) * 1e3, 1)


if __name__ == "__main__":
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    bare, times = [], {name: [] for name in ARGVS}
    for _ in range(runs):
        bare.append(seconds([sys.executable, "-c", "pass"]))
        for name, argv in ARGVS.items():
            times[name].append(seconds([sys.executable, "-m", "repvar", *argv]))
    print(json.dumps({
        "python": platform.python_version(),
        "runs": runs,
        "python_pass_ms": median_ms(bare),
        "commands": {name: [median_ms(times[name]), loaded(argv)] for name, argv in ARGVS.items()},
    }))
