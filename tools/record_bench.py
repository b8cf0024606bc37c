"""Record benchmark runs of one or more checkouts as ``BENCH_<name>.json`` files.

Run from the root of a repvar checkout:

    python3 tools/record_bench.py [--out DIR] CHECKOUT...

Each CHECKOUT is the root of a git checkout of repvar.  For every seed in
1-10, in turn, it runs ``perfbench/run.py --trace 0`` of each checkout on
every workload of that checkout's BENCHMARK.json, each run as long as its
``run_seconds``, and then one round of this tree's ``tools/cold_start.py``
against the checkout's ``src/``.  The checkouts take turns in an order
rotated from one seed to the next, so that the drift of a shared box falls
on all of them alike.

Each file holds, per workload and end-to-end metric, the median and the
interquartile range over the seeds together with the values in seed order
(so that two files recorded together can be compared pair by pair), the
``cold_start.py`` JSON under ``tools`` with each time the median over the
seeds' rounds, the Python version and nproc.  A file is named after the
checkout's commit when its ``src/`` is the one committed, else after
``src-`` and the git tree id of its working ``src/``, which ``git rev-parse
COMMIT:src`` prints once that tree is committed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def identify(root: Path) -> dict:
    """The checkout's commit (None if its src/ is not the one committed) and src tree."""

    def git(*args: str, **env: str) -> str:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              check=True, env={**os.environ, **env}).stdout.strip()

    # git hashes the working src/ through a scratch index, skipping ignored files
    with tempfile.TemporaryDirectory() as scratch:
        index = {"GIT_INDEX_FILE": os.path.join(scratch, "index")}
        git("read-tree", "HEAD", **index)
        git("add", "-A", "src", **index)
        tree = git("write-tree", "--prefix=src/", **index)
    commit = git("rev-parse", "--short", "HEAD") if git("rev-parse", "HEAD:src") == tree else None
    return {"name": commit or f"src-{tree[:7]}", "commit": commit, "src_tree": tree}


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def cold_start(root: Path) -> dict:
    """One round of this tree's ``tools/cold_start.py`` against the checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(HERE / "tools" / "cold_start.py"), "1"], cwd=root,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def merge_rounds(rounds: list[dict]) -> dict:
    """The ``cold_start.py`` JSON of all rounds, each time the median over them."""

    def median_ms(times) -> float:
        return round(statistics.median(times), 1)

    return {
        "python": rounds[0]["python"],
        "runs": len(rounds),
        "python_pass_ms": median_ms(r["python_pass_ms"] for r in rounds),
        "commands": {
            name: [median_ms(r["commands"][name][0] for r in rounds), modules]
            for name, (_, modules) in rounds[0]["commands"].items()
        },
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--out", type=Path, default=HERE)
    args = parser.parse_args(argv)

    roots = [c.resolve() for c in args.checkouts]
    specs = {r: json.loads((r / "BENCHMARK.json").read_text(encoding="utf-8")) for r in roots}
    runs = {r: {w["name"]: [] for w in specs[r]["workloads"]} for r in roots}
    colds = {r: [] for r in roots}
    for i, seed in enumerate(SEEDS):
        for root in roots[i % len(roots):] + roots[:i % len(roots)]:
            for workload, results in runs[root].items():
                results.append(run_workload(root, workload, seed, specs[root]["run_seconds"]))
                print(f"seed {seed} {root} {workload}", file=sys.stderr)
            colds[root].append(cold_start(root))
    ids = {r: identify(r) for r in roots}
    for root in roots:
        metrics = {m["name"]: m["unit"] for m in specs[root]["end_to_end"]}
        workloads = {}
        for workload, results in runs[root].items():
            workloads[workload] = {
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "metrics": {
                    name: {"unit": unit, **summary([r["metrics"][name]["value"] for r in results])}
                    for name, unit in metrics.items()
                },
            }
        record = {
            **ids[root],
            "recorded_with": [ids[r]["name"] for r in roots],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "seeds": SEEDS,
            "seconds": specs[root]["run_seconds"],
            "workloads": workloads,
            "tools": {"cold_start": merge_rounds(colds[root])},
        }
        path = args.out / f"BENCH_{ids[root]['name']}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
