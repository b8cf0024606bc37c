"""Spans around calls into repvar's modules, recorded from outside the program.

``Tracer.installed()`` replaces each traced public function (and a few
methods) with a wrapper wherever repvar's modules bind it, so calls between
modules become nested spans too.  Element-level permutation arithmetic
(``perm_compose``, ``perm_inverse``, ``Permutation`` itself) is not traced:
one call costs about as much as a span, so its time is charged to the caller.

A span is (name, start, end, parent index, op id, pass index, info).  Spans
stay in memory and are written out once, at the end of the run.  A span's
self time is its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

LAYERS = ("presentation", "liedata", "eigen", "cocycle", "permgrp", "density", "report")

TRACED = {
    "presentation": (
        "euler_characteristic", "validate", "parse_signature", "parse_presentation",
        "FuchsianPresentation.__post_init__",
    ),
    "liedata": (
        "exponents", "dimension", "classical_dim", "classical_rank",
        "parse_root_system", "parse_classical_group", "RootSystem.__post_init__",
    ),
    "eigen": (
        "balanced_class", "cycle_type_std_eigenprofile", "perm_std_eigenprofile",
        "exterior_square_fixed_dim", "principal_fixed_dim", "principal_eigenprofile",
        "su_centralizer_dim", "perm_order", "perm_parity", "perm_from_cycles",
    ),
    "cocycle": (
        "z1_dim", "z1_dim_principal", "z1_dim_alternating_so", "upper_bound",
        "exceptional_inequality", "density_criterion_compare",
    ),
    "permgrp": (
        "StabilizerChain.__init__", "StabilizerChain.contains", "group_order",
        "generates_alternating", "verify_appendix_entry", "entry_by_label", "parse_entry_text",
    ),
    "density": ("triangle_witness", "interval_coprime", "scan_hyperbolic_triples", "is_so3_dense"),
    "report": (
        "defect_table", "tminusdim_table", "genus0_all2_values", "render_table_text",
        "table_json_obj",
    ),
    "cli": ("main",),
}


def _chain_shape(args, result):
    chain = args[0]
    return (
        len(chain.base),
        len(chain.level_generators(0)),
        sum(len(t) for t in chain.transversals),
    )


def _found(args, result):
    return result is not None


INFO = {  # span name -> what to record about the call besides its times
    "permgrp.StabilizerChain": _chain_shape,
    "density.triangle_witness": _found,
    "density.interval_coprime": _found,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    pass_index: int
    info: object


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self.pass_index = 0

    def call(self, name: str, fn, args=(), kwargs=None, info=None):
        """Run fn(*args) inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = Span(name, start, end, parent, self.op, self.pass_index, None)
        if info is not None:
            spans[index] = spans[index]._replace(info=info(args, result))
        return result

    def _wrap(self, name: str, fn):
        info = INFO.get(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Trace repvar's public functions for the duration of the block."""
        undo = []
        modules = [m for k, m in list(sys.modules.items()) if k == "repvar" or k.startswith("repvar.")]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"repvar.{layer}")
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        continue
                    span_name = f"{layer}.{cls_name}" + ("" if meth.startswith("__") else f".{meth}")
                    original = vars(cls)[meth]
                    setattr(cls, meth, self._wrap(span_name, original))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            undo.append((m, key, original))
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write(self, path, meta: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({**meta, "fields": list(Span._fields), "spans": self.spans}, handle)


def self_times(spans) -> list[float]:
    """Duration minus the union of the child spans' intervals, per span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def p90(values) -> float:
    """90th percentile as ``statistics.quantiles`` gives it; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics: times per traced pass, counts and ratios of pass 0.

    ``<layer>.busy_s`` is the layer's self time and ``<layer>.calls`` its
    span count.  Named function families (chain builds, scans, witness
    searches, verdicts, z1 evaluations, bounds) report the inclusive time of
    their outermost spans; ``permgrp.verify_s`` is the self time of
    ``verify_appendix_entry``.  Counts come from pass 0, whose inputs depend
    only on the seed, so they repeat exactly.
    """
    own = self_times(spans)
    names = [s.name for s in spans]

    def outermost(family):
        return [
            s for s in spans
            if s.name in family and (s.parent < 0 or names[s.parent] not in family)
        ]

    def per_pass(selected) -> float:
        return sum(s.end - s.start for s in selected) / passes

    first = [s for s in spans if s.pass_index == 0]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = sum(
            t for s, t in zip(spans, own) if s.name.startswith(layer + ".")
        ) / passes
        m[f"{layer}.calls"] = sum(1 for s in first if s.name.startswith(layer + "."))

    builds = outermost({"permgrp.StabilizerChain", "permgrp.group_order",
                        "permgrp.generates_alternating"})
    m["permgrp.chain_build_s"] = per_pass(builds)
    m["permgrp.chain_build_p90_ms"] = p90([(s.end - s.start) * 1e3 for s in builds])
    m["permgrp.verify_s"] = sum(
        t for s, t in zip(spans, own) if s.name == "permgrp.verify_appendix_entry"
    ) / passes
    queries = [(s.end - s.start) * 1e6 for s in spans if s.name == "permgrp.StabilizerChain.contains"]
    m["permgrp.contains_us"] = statistics.median(queries) if queries else 0.0
    shapes = [s.info for s in first if s.name == "permgrp.StabilizerChain"]
    m["permgrp.chains"] = len(shapes)
    m["permgrp.base_points"] = sum(b for b, _, _ in shapes)
    m["permgrp.strong_gens"] = sum(g for _, g, _ in shapes)
    m["permgrp.orbit_points"] = sum(o for _, _, o in shapes)

    scan_ids = {i for i, name in enumerate(names) if name == "density.scan_hyperbolic_triples"}
    m["density.scan_s"] = per_pass(spans[i] for i in scan_ids)
    m["density.scan_triples"] = sum(
        1 for s in first if s.name == "density.triangle_witness" and s.parent in scan_ids
    )
    witness = outermost({"density.triangle_witness"})
    m["density.witness_s"] = per_pass(witness)
    m["density.witness_calls"] = sum(1 for s in first if s.name == "density.triangle_witness")
    found = [s.info for s in first if s.name == "density.triangle_witness" and s.info is not None]
    m["density.witness_found_ratio"] = sum(found) / len(found) if found else 0.0
    m["density.verdict_s"] = per_pass(outermost({"density.is_so3_dense"}))
    m["density.verdict_calls"] = sum(1 for s in first if s.name == "density.is_so3_dense")
    m["density.interval_s"] = per_pass(outermost({"density.interval_coprime"}))
    hits = [s.info for s in first if s.name == "density.interval_coprime" and s.info is not None]
    m["density.interval_found_ratio"] = sum(hits) / len(hits) if hits else 0.0

    z1 = {"cocycle.z1_dim", "cocycle.z1_dim_principal", "cocycle.z1_dim_alternating_so"}
    evaluations = outermost(z1)
    m["cocycle.z1_s"] = per_pass(evaluations)
    m["cocycle.z1_calls"] = sum(1 for s in evaluations if s.pass_index == 0)
    m["cocycle.bound_s"] = per_pass(outermost({
        "cocycle.upper_bound", "cocycle.exceptional_inequality",
        "cocycle.density_criterion_compare",
    }))
    return m


def self_shares(spans) -> dict[str, float]:
    """Share of all self time by layer; ``op`` is the benchmark's own loop."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        totals[s.name.split(".")[0]] += t
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}
