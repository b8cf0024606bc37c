"""Tests of the benchmark itself: inputs, failure counting, metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, spans  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, op_mix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generators_are_deterministic_per_seed():
    for cls in WORKLOADS.values():
        w = cls(ROOT)
        assert w.generate(7, 0) == w.generate(7, 0)
        assert w.generate(7, 1) == w.generate(7, 1)
        assert w.generate(7, 0) != w.generate(8, 0)
        assert w.generate(7, 0) != w.generate(7, 1)


def test_op_mix_is_the_same_on_every_seed():
    for cls in WORKLOADS.values():
        w = cls(ROOT)
        mixes = {tuple(sorted(op_mix(w.generate(s, 0)).items())) for s in range(5)}
        assert len(mixes) == 1


def _cheap_survey_ops(seed, k):
    ops = WORKLOADS["survey"](ROOT).generate(seed, k)
    return [op for op in ops if op.kind != "scan"][:20] + [
        Op("interval", (100, 160)), Op("table", ("defect",))
    ]


def test_corrupted_result_is_counted():
    w = WORKLOADS["survey"](ROOT)
    p = run.run_pass(w, _cheap_survey_ops(3, 0))
    assert run.count_failures(w, [p]) == (0, len(p.ops))
    results = list(p.results)
    i = next(j for j, op in enumerate(p.ops) if op.kind == "witness")
    results[i] = [(1, 1, 1)] + results[i][1:]
    corrupted = p._replace(results=results)
    assert run.count_failures(w, [corrupted]) == (1, len(p.ops))


def test_wrong_library_answer_is_counted(monkeypatch):
    from repvar import density

    w = WORKLOADS["survey"](ROOT)
    original = density.interval_coprime
    monkeypatch.setattr(
        density, "interval_coprime",
        lambda d, case: None if d == 123 and case == 1 else original(d, case),
    )
    p = run.run_pass(w, [Op("interval", (100, 160))])
    assert run.count_failures(w, [p]) == (1, 1)


def test_corrupted_cli_output_is_counted():
    w = WORKLOADS["cli"](ROOT)
    op = Op("cli", ("euler", "g=0;d=2,3,7", "--format", "json"), 0)
    rc, out, err = w.expected(op.args)
    assert w.check(op, (rc, out, err))
    assert not w.check(op, (rc, out.replace("-1/42", "-1/43"), err))
    assert not w.check(op, (1, out, err))
    assert not w.check(op, (rc, out, err + "Traceback (most recent call last):\n"))


def test_self_time_subtracts_child_spans():
    s = spans.Span
    trace = [
        s("a.f", 0.0, 10.0, -1, 0, 0, None),
        s("b.g", 1.0, 3.0, 0, 0, 0, None),
        s("b.h", 5.0, 6.0, 0, 0, 0, None),
        s("c.k", 1.5, 2.0, 1, 0, 0, None),
    ]
    assert spans.self_times(trace) == [7.0, 1.5, 1.0, 0.5]


def test_printed_metric_names_match_benchmark_json():
    w = WORKLOADS["certify"](ROOT)

    def small(seed, k):
        return w.generate(seed, k)[:8]

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        failed, attempted, metrics, _ = run.measure(w, 5, 0, trace, generate=small)
        assert failed == 0 and attempted > 0
        assert set(metrics) == {m["name"] for m in SPEC[section]}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
