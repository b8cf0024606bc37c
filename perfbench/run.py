"""repvar benchmark: seeded closed-loop workloads, checked, timed and traced.

Run from the root of a repvar checkout:

    python3 perfbench/run.py --workload certify|survey|cli --seed N \\
        --seconds S --trace 0|1

One client, one process, no threads, at most one child process at a time.
The run goes through passes of the workload's op list (pass k's inputs come
from the seed and k) while another pass fits in S seconds, checks every
result against ``oracles``, and prints as its last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` and ``cpu_s`` are medians over passes, ``op_p50_ms`` and
``op_p90_ms`` are taken over every op of every pass, ``peak_rss_mb`` is the
worker's high-water mark after the first pass (the subprocesses' on
``cli``), and ``setup_s`` is the median time a fresh interpreter takes to
import repvar and all its submodules, sampled before and between passes.

``--trace 1`` alternates untraced and traced passes over the same inputs
and reports the per-layer metrics (see ``spans.layer_metrics``), the
``cli.*`` probes and ``trace.overhead_s``; the spans are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
PROBE_REPS = 7
TRIPLE_REPS = 3

IMPORT_PROBE = """\
import importlib, pkgutil, time
t = time.perf_counter()
import repvar
for m in pkgutil.iter_modules(repvar.__path__):
    if m.name != "__main__":
        importlib.import_module("repvar." + m.name)
print(time.perf_counter() - t)
"""


class Pass(NamedTuple):
    ops: list
    results: list
    latencies: list
    wall: float
    cpu: float


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def run_pass(workload, ops, tracer=None) -> Pass:
    calls = workload.prepare(ops)
    latencies, results = [], []
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    for i, (op, fn) in enumerate(zip(ops, calls)):
        start = perf_counter()
        try:
            if tracer is None:
                result = fn()
            else:
                tracer.op = i
                result = tracer.call("op." + op.kind, fn)
        except Exception as exc:  # a failed op is counted, the run goes on
            result = exc
        latencies.append(perf_counter() - start)
        results.append(result)
    wall = perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    return Pass(ops, results, latencies, wall, cpu)


def count_failures(workload, passes) -> tuple[int, int]:
    """(failed, attempted) over every op of every pass."""
    failed = attempted = 0
    for p in passes:
        for op, result in zip(p.ops, p.results):
            attempted += 1
            try:
                ok = not isinstance(result, Exception) and workload.check(op, result)
            except Exception:
                ok = False
            failed += not ok
    return failed, attempted


def _python(code: str, env) -> tuple[float, str]:
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return perf_counter() - start, done.stdout


def import_seconds(env) -> float:
    """In-interpreter import time of repvar and all its submodules."""
    return float(_python(IMPORT_PROBE, env)[1])


def cli_probes(env, seed: int) -> dict[str, float]:
    """Interpreter start, import cost and in-process ``main`` per subcommand."""
    from perfbench.workloads import Cli, run_in_process, subcommand

    _python("import repvar.cli", env)
    bare, full = [], []
    for _ in range(PROBE_REPS):
        bare.append(_python("pass", env)[0])
        full.append(_python("import repvar.cli", env)[0])
    start_ms = statistics.median(bare) * 1e3
    m = {
        "cli.interp_start_ms": start_ms,
        "cli.import_ms": statistics.median(full) * 1e3 - start_ms,
    }
    every, by_command = [], {}
    for op in Cli(ROOT).generate(seed, 0):
        t = perf_counter()
        try:
            run_in_process(op.args)
        except Exception:
            pass  # the timed runs count failures; this only times main
        ms = (perf_counter() - t) * 1e3
        every.append(ms)
        if op.expect != 2:
            by_command.setdefault(subcommand(op.args), []).append(ms)
    m["cli.main_ms"] = statistics.median(every)
    for name, values in by_command.items():
        m[f"cli.{name}_ms"] = statistics.median(values)
    return m


def triple_chain_ms() -> dict[str, float]:
    """Chain build time on each shipped triple, median of a few builds."""
    from repvar import permgrp

    m = {}
    for entry in permgrp.APPENDIX_ENTRIES:
        times = []
        for _ in range(TRIPLE_REPS):
            t = perf_counter()
            permgrp.StabilizerChain(list(entry.generators))
            times.append((perf_counter() - t) * 1e3)
        m["permgrp.triple_" + entry.label.replace(",", "-") + "_ms"] = statistics.median(times)
    return m


def measure(workload, seed: int, seconds: float, trace: bool, generate=None):
    """Run the workload; return (failed, attempted, metrics, summary lines)."""
    from perfbench import spans
    from perfbench.workloads import alt_ratio, child_env, op_mix, run_in_process

    generate = generate or workload.generate
    env = child_env(ROOT)
    metrics: dict[str, float] = {}
    setup = []
    if not trace:
        _python(IMPORT_PROBE, env)  # compiles the bytecode cache
        setup += [import_seconds(env) for _ in range(SETUP_REPS)]
    tracer = spans.Tracer() if trace else None
    plain, traced = [], []
    start, k = perf_counter(), 0
    while True:
        ops = generate(seed, k)
        plain.append(run_pass(workload, ops))
        if k == 0:  # one pass of inputs, before any result is checked
            who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        if trace:
            tracer.pass_index = k
            with tracer.installed():
                traced.append(run_pass(workload, ops, tracer))
                if workload.name == "cli":  # the library layers run in-process
                    for i, op in enumerate(ops):
                        tracer.op = i
                        tracer.call("op.replay", run_in_process, (op.args,))
        else:  # set-up samples spread over the run, between passes
            setup.append(import_seconds(env))
        k += 1
        elapsed = perf_counter() - start
        if elapsed * (k + 1) / k > seconds:  # another pass would overrun
            break
    if setup:
        metrics["setup_s"] = statistics.median(setup)

    failed, attempted = count_failures(workload, plain + traced)
    latencies = [t for p in plain for t in p.latencies]
    lines = [
        f"workload={workload.name} seed={seed} passes={len(plain)} "
        f"ops_per_pass={len(plain[0].ops)} op_mix={json.dumps(op_mix(plain[0].ops))}",
        f"samples={len(latencies)} failed={failed} attempted={attempted} "
        f"fail_ratio={failed / attempted:.6g}",
    ]
    if not trace:
        metrics.update({
            "wall_s": statistics.median(p.wall for p in plain),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": spans.p90(latencies) * 1e3,
            "cpu_s": statistics.median(p.cpu for p in plain),
            "peak_rss_mb": peak_rss_mb,
        })
        return failed, attempted, metrics, lines

    metrics.update(spans.layer_metrics(tracer.spans, len(traced)))
    metrics["permgrp.alt_ratio"] = alt_ratio(traced[0].ops, traced[0].results)
    metrics.update(triple_chain_ms())
    metrics.update(cli_probes(env, seed))
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    )
    shares = spans.self_shares(tracer.spans)
    lines.append("self-time share: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload.name}-{seed}.json.gz",
                 {"workload": workload.name, "seed": seed, "passes": len(traced)})
    return failed, attempted, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repvar" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a repvar checkout (no src/repvar or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT)
    failed, attempted, values, lines = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"missing {sorted(names - set(values))}, extra {sorted(set(values) - names)}",
              file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
