"""The three workloads: seeded op lists, how each op calls repvar, and checks.

A workload's ``generate(seed, k)`` returns the k-th pass of ops as plain data
(tuples of ints and strings); the same (seed, k) always gives the same list.
``prepare`` turns the ops into zero-argument calls on repvar objects (input
construction is not timed), and ``check`` compares the collected results
with ``oracles``, never with repvar's own code path.

Every pass has a fixed op mix; the seed varies only the inputs.  Where one
op's cost grows steeply with a seeded size, the sizes are stratified or
paired so that a pass costs about the same on every seed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from repvar import cli, cocycle, density, eigen, liedata, permgrp, presentation, report

from . import oracles as orc


@dataclass(frozen=True)
class Op:
    """One call a user waits for; ``expect`` is an answer known by construction."""

    kind: str
    args: tuple
    expect: object = None


def rng_for(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def op_mix(ops) -> dict[str, int]:
    mix: dict[str, int] = {}
    for op in ops:
        mix[op.kind] = mix.get(op.kind, 0) + 1
    return mix


class Workload:
    """Base of the workloads: ``generate``, ``prepare`` and ``check`` per kind."""

    name = ""

    def __init__(self, root):
        self.root = str(root)


# -- certify: the permgrp workload ------------------------------------------

SHIPPED = {  # label -> degree of the shipped triple
    "2,4,6": 14, "2,6,6": 14, "3,6,6": 12, "3,4,4": 14, "2,6,10": 12, "4,6,12": 12,
}
CERTIFY_DEGREES = range(8, 19)
QUERIES_PER_SIDE = 6


def _even_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    if orc.perm_parity_odd(images):
        images[0], images[1] = images[1], images[0]
    return tuple(images)


def _structured_pair(rng: random.Random, n: int):
    """Two even permutations that cannot generate A_n, and a breaking 3-cycle.

    Composite n: both preserve a block system with blocks of a seeded size.
    Prime n: both preserve a seeded split of the points into two orbits.
    The returned 3-cycle moves a point out of its block (orbit), so it and
    every product of it with a group element lie outside the group.
    """
    points = list(range(1, n + 1))
    rng.shuffle(points)
    sizes = [b for b in range(2, n) if n % b == 0]
    if sizes:
        b = rng.choice(sizes)
        parts = [points[i:i + b] for i in range(0, n, b)]
    else:
        a = rng.randint(2, n - 2)
        parts = [points[:a], points[a:]]
    gens = []
    for _ in range(2):
        images = [0] * n
        if sizes:
            targets = parts[:]
            rng.shuffle(targets)
        else:
            targets = parts
        for src, dst in zip(parts, targets):
            dst = dst[:]
            rng.shuffle(dst)
            for p, q in zip(src, dst):
                images[p - 1] = q
        if orc.perm_parity_odd(images):
            x, y = parts[0][0], parts[0][1]
            images[x - 1], images[y - 1] = images[y - 1], images[x - 1]
        gens.append(tuple(images))
    x, y, z = parts[0][0], parts[0][1], parts[1][0]
    breaker = list(range(1, n + 1))
    breaker[x - 1], breaker[y - 1], breaker[z - 1] = y, z, x
    return tuple(gens), tuple(breaker)


def _queries(rng: random.Random, gens, n: int, breaker):
    """Members are words in the generators; non-members are odd, or broken."""
    def word():
        x = tuple(range(1, n + 1))
        for _ in range(rng.randint(4, 16)):
            x = orc.compose(rng.choice(gens), x)
        return x

    queries = [(word(), True) for _ in range(QUERIES_PER_SIDE)]
    for i in range(QUERIES_PER_SIDE):
        if breaker is not None and i % 2:
            outsider = breaker
        else:
            a, b = rng.sample(range(1, n + 1), 2)
            outsider = list(range(1, n + 1))
            outsider[a - 1], outsider[b - 1] = b, a
        queries.append((orc.compose(outsider, word()), False))
    rng.shuffle(queries)
    return tuple(q for q, _ in queries), tuple(t for _, t in queries)


class Certify(Workload):
    """Schreier-Sims certification: shipped triples, seeded pairs, membership."""

    name = "certify"

    def __init__(self, root):
        super().__init__(root)
        self.orders = orc.GroupOrders()

    def generate(self, seed: int, k: int) -> list[Op]:
        rng = rng_for(self.name, seed, k)
        labels = list(SHIPPED)
        rng.shuffle(labels)
        pairs = []
        for n in CERTIFY_DEGREES:
            pairs.append(((_even_perm(rng, n), _even_perm(rng, n)), None))
            pairs.append(_structured_pair(rng, n))
        entry_points = ["chain"] * 8 + ["order"] * 7 + ["alt"] * 7
        rng.shuffle(entry_points)
        order = list(range(len(pairs)))
        rng.shuffle(order)
        ops = [Op("verify", (label,)) for label in labels]
        for slot, i in enumerate(order):
            gens, breaker = pairs[i]
            n = len(gens[0])
            kind = entry_points[slot]
            ops.append(Op(kind, (slot, gens)))
            if kind == "chain":
                queries, truth = _queries(rng, gens, n, breaker)
                ops.append(Op("contains", (slot, queries), truth))
        return ops

    def prepare(self, ops):
        chains = {}
        entries = {e.label: e for e in permgrp.APPENDIX_ENTRIES}

        def call(op):
            if op.kind == "verify":
                entry = entries[op.args[0]]
                return lambda: permgrp.verify_appendix_entry(entry)
            if op.kind == "contains":
                slot, queries = op.args
                perms = [eigen.Permutation(q) for q in queries]
                return lambda: tuple(chains[slot].contains(q) for q in perms)
            slot, gens = op.args
            perms = [eigen.Permutation(g) for g in gens]
            if op.kind == "chain":
                def build():
                    chains[slot] = permgrp.StabilizerChain(perms)
                    return chains[slot].order()
                return build
            if op.kind == "order":
                return lambda: permgrp.group_order(perms)
            return lambda: permgrp.generates_alternating(perms, len(gens[0]))

        return [call(op) for op in ops]

    def check(self, op: Op, result) -> bool:
        if op.kind == "contains":
            return result == op.expect
        if op.kind == "verify":
            return self._check_report(op.args[0], result)
        gens = op.args[1]
        order = self.orders(gens)
        if op.kind == "alt":
            return result is (order == orc.alternating_order(len(gens[0])))
        return result == order

    def _check_report(self, label: str, r) -> bool:
        expected = shipped_expected(label)
        gens = shipped_images(label)
        return (
            r.label == label
            and r.product_is_identity is expected["product_is_identity"]
            and list(r.order_matches) == expected["order_matches"]
            and list(r.all_even) == expected["all_even"]
            and r.generates_alternating is True
            and self.orders(gens) == factorial(SHIPPED[label]) // 2
            and r.z1_dim == expected["z1"]
            and r.so_dim == expected["so_dim"]
            and r.ok is True
        )



def alt_ratio(ops, results) -> float:
    """Share of a pass's seeded pairs that generate A_n (an input property)."""
    tested = generating = 0
    for op, r in zip(ops, results):
        if op.kind in ("chain", "order", "alt"):
            tested += 1
            generating += r is True or r == orc.alternating_order(len(op.args[1][0]))
    return generating / tested if tested else 0.0


def shipped_images(label: str):
    entry = next(e for e in permgrp.APPENDIX_ENTRIES if e.label == label)
    return [x.images for x in entry.generators]


def shipped_expected(label: str) -> dict:
    """Certificate fields of a shipped triple, recomputed from its images."""
    gens = shipped_images(label)
    n = SHIPPED[label]
    periods = tuple(int(t) for t in label.split(","))
    product = orc.compose(orc.compose(gens[0], gens[1]), gens[2])
    types = [orc.cycle_type(g) for g in gens]
    return {
        "product_is_identity": product == tuple(range(1, n + 1)),
        "order_matches": [lcm(*t) == d for t, d in zip(types, periods)],
        "all_even": [not orc.perm_parity_odd(g) for g in gens],
        "z1": orc.z1_alternating(0, types, n),
        "so_dim": (n - 1) * (n - 2) // 2,
    }


# -- survey: the density and formula-layer workload -------------------------

REPORTS_RANDOM = 34
REPORTS_REDUCTION = 10
WITNESS_BATCHES = 4  # per mode
# strict searches cost more per triple; these sizes make all batches cost
# about the same, so that op_p90_ms falls inside the batch group
WITNESS_BATCH_SIZE = {True: 300, False: 400}
INTERVAL_WIDTH = 1500


def _period(rng: random.Random) -> int:
    if rng.random() < 0.15:
        return rng.randint(2, 120)
    return min(120, 2 + int(rng.expovariate(1 / 5)))


def _signature(rng: random.Random, genus=None, min_m=0):
    while True:
        g = rng.choice((0, 0, 0, 1, 2, 3)) if genus is None else genus
        m = rng.randint(max(min_m, 3 if g == 0 else 1 if g == 1 else 0), 7)
        periods = tuple(sorted(_period(rng) for _ in range(m)))
        if orc.is_hyperbolic(g, periods):
            return g, periods


def _triple(rng: random.Random):
    while True:
        t = tuple(sorted(_period(rng) for _ in range(3)))
        if orc.is_hyperbolic(0, t):
            return t


class Survey(Workload):
    """Signature reports interleaved with scans, witness batches and tables."""

    name = "survey"

    def generate(self, seed: int, k: int) -> list[Op]:
        rng = rng_for(self.name, seed, k)
        sigs = [(0, t) for t in sorted(orc.NOT_DENSE)] + [(0, t) for t in orc.SHADOWED]
        sigs += [_signature(rng, genus=0, min_m=4) for _ in range(REPORTS_REDUCTION)]
        sigs += [_signature(rng) for _ in range(REPORTS_RANDOM)]
        ops = []
        for g, periods in sigs:
            classical = tuple(f + str(rng.randint(10, 40)) for f in "ABCD")
            degree = max(6, 2 * max(periods, default=3)) + rng.randrange(8)
            ops.append(Op("report", (g, periods, classical, degree)))
        for strict in (True, False):
            for _ in range(WITNESS_BATCHES):
                triples = tuple(_triple(rng) for _ in range(WITNESS_BATCH_SIZE[strict]))
                ops.append(Op("witness", (strict, triples)))
        lo = rng.randint(2, 8000)
        ops.append(Op("interval", (lo, lo + INTERVAL_WIDTH)))
        ops += [Op("table", ("defect",)), Op("table", ("tminusdim",))]
        ops.append(Op("table", ("genus0", rng.randint(5, 40))))
        # the two scans' costs grow like dmax^3; pairing 40+r with 60-r keeps
        # every pass's scan cost nearly equal while dmax still varies
        r = rng.randint(0, 10)
        ops += [Op("scan", (40 + r,)), Op("scan", (60 - r,))]
        rng.shuffle(ops)
        return ops

    def prepare(self, ops):
        def call(op):
            a = op.args
            if op.kind == "report":
                return lambda: _signature_report(*a)
            if op.kind == "witness":
                strict, triples = a
                return lambda: [density.triangle_witness(*t, strict=strict) for t in triples]
            if op.kind == "interval":
                return lambda: [
                    density.interval_coprime(d, case)
                    for d in range(a[0], a[1]) for case in (1, 2, 3)
                ]
            if op.kind == "scan":
                return lambda: density.scan_hyperbolic_triples(a[0])
            return lambda: _table(*a)

        return [call(op) for op in ops]

    def check(self, op: Op, result) -> bool:
        a = op.args
        if op.kind == "report":
            return _check_report(*a, result)
        if op.kind == "witness":
            strict, triples = a
            return len(result) == len(triples) and all(
                _witness_ok(t, strict, w) for t, w in zip(triples, result)
            )
        if op.kind == "interval":
            expected = [(d, c) for d in range(a[0], a[1]) for c in (1, 2, 3)]
            return len(result) == len(expected) and all(
                _interval_ok(d, c, v) for (d, c), v in zip(expected, result)
            )
        if op.kind == "scan":
            return [tuple(t) for t in result] == [
                t for t in orc.WITNESS_FAILURES if max(t) <= a[0]
            ]
        return _check_table(a, result)


def _signature_report(genus, periods, classical, degree):
    chi = presentation.euler_characteristic(genus, periods)
    p = presentation.validate(genus, periods)
    systems = [liedata.parse_root_system(label) for label in orc.COLUMNS + classical]
    z1 = [cocycle.z1_dim_principal(p, rs) for rs in systems]
    bounds = [cocycle.upper_bound(p, liedata.dimension(rs), rs.rank) for rs in systems]
    beats_so3 = [cocycle.exceptional_inequality(p, rs) for rs in systems]
    classes = [eigen.balanced_class(degree, d) for d in p.periods]
    z1_alt = cocycle.z1_dim_alternating_so(p, classes, degree)
    return chi, p, z1, bounds, beats_so3, classes, z1_alt, density.is_so3_dense(p)


def _check_report(genus, periods, classical, degree, result) -> bool:
    chi, p, z1, bounds, beats_so3, classes, z1_alt, verdict = result
    labels = orc.COLUMNS + classical
    types = [orc.balanced_type(degree, d) for d in periods]
    return (
        chi == orc.chi(genus, periods)
        and (p.genus, p.periods) == (genus, periods)
        and z1 == [orc.z1_principal(genus, periods, s) for s in labels]
        and bounds == [
            orc.upper_bound(genus, periods, orc.lie_dim(s), orc.lie_rank(s)) for s in labels
        ]
        and beats_so3 == [orc.exceptional_inequality(genus, periods, s) for s in labels]
        and [tuple(c) for c in classes] == types
        and z1_alt == orc.z1_alternating(genus, types, degree)
        and _verdict_ok(genus, periods, verdict)
    )


def _verdict_ok(genus, periods, verdict) -> bool:
    """Not dense iff in the six-element set; the reason fits the branch."""
    kind = type(verdict.reason).__name__
    if verdict.dense is (genus == 0 and periods in orc.NOT_DENSE):
        return False
    if genus > 0:
        return kind == "GenusPositive"
    if periods in orc.NOT_DENSE:
        return kind == "ExceptionalSet"
    if len(periods) == 3 and periods in orc.SHADOWED:
        return kind == "IndexTwoRealization"
    if len(periods) == 3:
        return kind == "TriangleWitness" and orc.witness_valid(
            periods, tuple(verdict.reason.angles), True
        )
    r = verdict.reason
    aux = r.auxiliary
    return (
        kind == "InductiveReduction"
        and tuple(r.retained) == periods[:-2] + (aux,)
        and tuple(r.split) == periods[-2:] + (aux,)
    )


def _witness_ok(triple, strict, w) -> bool:
    expected = orc.least_witness(*triple, strict)
    if w is None:
        return expected is None
    return orc.witness_valid(triple, tuple(w), strict) and tuple(w) == expected


def _interval_ok(d, case, value) -> bool:
    """None only when no numerator exists; otherwise any valid numerator."""
    if value is None:
        return orc.least_interval_numerator(d, case) is None
    return gcd(value, d) == 1 and orc.in_case_interval(value, d, case)


def _table(name, m=None):
    if name == "genus0":
        return report.genus0_all2_values(m)
    table = report.defect_table() if name == "defect" else report.tminusdim_table()
    return table, report.render_table_text(table), report.table_json_obj(table)


def _expected_cells(name, m=None):
    if name == "defect":
        return [
            [
                sum(1 + 2 * (e // n) for e in orc.exponents(c))
                - sum(Fraction(2 * e + 1, n) for e in orc.exponents(c))
                for c in orc.COLUMNS
            ]
            for n in range(2, 8)
        ]
    rows = orc.TMINUSDIM_ROWS if name == "tminusdim" else [(2,) * m]
    return [[orc.z1_principal(0, r, c) - orc.lie_dim(c) for c in orc.COLUMNS] for r in rows]


def _check_table(args, result) -> bool:
    expected = _expected_cells(*args)
    if args[0] == "genus0":
        return list(result) == expected[0]
    table, text, obj = result
    return (
        [list(row) for row in table.cells] == expected
        and len(text.splitlines()) == len(expected) + 1
        and obj["cells"] == [[str(v) for v in row] for row in expected]
    )


# -- cli: one subprocess per invocation -------------------------------------

def _sig_text(genus, periods) -> str:
    return f"g={genus};d=" + ",".join(str(d) for d in periods)


def _small_signature(rng: random.Random):
    """Hyperbolic signature with small periods, genus 0-2."""
    while True:
        g = rng.choice((0, 0, 1, 2))
        m = rng.randint(3 if g == 0 else 1 if g == 1 else 0, 5)
        periods = tuple(sorted(rng.randint(2, 12) for _ in range(m)))
        if orc.is_hyperbolic(g, periods):
            return g, periods


def _cli_valid(rng: random.Random):
    """One invocation of each leaf subcommand but verify-appendix: (argv, rc)."""
    g, periods = _small_signature(rng)
    sig = _sig_text(g, periods)
    triple = _triple_small(rng)
    strict = rng.random() < 0.5
    witness_rc = 0 if orc.least_witness(*triple, strict) is not None else 1
    d, case = rng.randint(2, 400), rng.randint(1, 3)
    interval_rc = 0 if orc.least_interval_numerator(d, case) is not None else 1
    eg, eperiods = rng.choice(((0, (2, 3, 7)), (0, (3, 3, 3)), (1, ()), _small_signature(rng)))
    table = rng.choice((["defect"], ["tminusdim"], ["genus0", "--m", str(rng.randint(5, 40))]))
    group = rng.choice(orc.COLUMNS + ("SO(%d)" % rng.randint(3, 20), "SU(%d)" % rng.randint(2, 12)))
    degree = max(6, 2 * max(periods, default=3)) + rng.randrange(6)
    return [
        (["euler", _sig_text(eg, eperiods)], 0),
        (["validate", sig], 0),
        (["z1", "principal", sig, rng.choice(orc.COLUMNS + ("A%d" % rng.randint(1, 12),))], 0),
        (["z1", "alternating", sig, "--degree", str(degree)], 0),
        (["upper-bound", sig, group], 0),
        (["density", _sig_text(0, rng.choice(sorted(orc.NOT_DENSE))) if rng.random() < 0.3
          else sig], 0),
        (["triangle-witness", *map(str, triple)] + ([] if strict else ["--non-strict"]),
         witness_rc),
        (["scan-triples", "--dmax", str(rng.randint(7, 16))], 0),
        (["interval", str(d), "--case", str(case)], interval_rc),
        (["tables", *table], 0),
    ]


def _triple_small(rng: random.Random):
    while True:
        t = tuple(sorted(rng.randint(2, 30) for _ in range(3)))
        if orc.is_hyperbolic(0, t):
            return t


CLI_NEGATIVE = (  # mathematically negative answers: exit 1
    (["validate", "g=0;d=2,4,4"], 1),
    (["validate", "g=0;d=3,3,3"], 1),
    (["validate", "g=1;d="], 1),
    (["triangle-witness", "2", "6", "10"], 1),
    (["triangle-witness", "4", "6", "12"], 1),
    (["interval", "6", "--case", "1"], 1),
    (["interval", "10", "--case", "2"], 1),
    (["interval", "18", "--case", "3"], 1),
)
CLI_MALFORMED = (  # usage errors and malformed input: exit 2
    (["euler", "g=x;d=2,3"], 2),
    (["validate", "g=0;d=1,3,7"], 2),
    (["z1", "principal", "g=0;d=2,3,7", "X9"], 2),
    (["upper-bound", "g=0;d=2,3,7", "SO(1)"], 2),
    (["density", "g=0;d=2,3,6"], 2),
    (["scan-triples", "--dmax", "5"], 2),
    (["interval", "1", "--case", "1"], 2),
    (["verify-appendix", "--entry", "9,9,9"], 2),
    (["tables", "genus0"], 2),
    (["tables", "genus0", "--m", "4"], 2),
    (["triangle-witness", "2", "3", "6"], 2),
    (["frobnicate"], 2),
)
CLI_NEGATIVES_PER_PASS = 4
CLI_MALFORMED_PER_PASS = 4


def subcommand(argv) -> str:
    """Leaf subcommand name, e.g. ``z1-principal``; unknown names pass through."""
    return f"z1-{argv[1]}" if argv[0] == "z1" else argv[0]


def child_env(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(str(root), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


class Cli(Workload):
    """One ``python -m repvar`` subprocess per op, closed loop."""

    name = "cli"

    def __init__(self, root):
        super().__init__(root)
        self.env = child_env(root)
        self._expected: dict[tuple, tuple] = {}

    def generate(self, seed: int, k: int) -> list[Op]:
        rng = rng_for(self.name, seed, k)
        # certifications cost the most: pass k certifies shipped triples
        # 2k and 2k+1 (mod 6), so every seed has the same tail mix
        labels = list(SHIPPED)
        valid = _cli_valid(rng) + [
            (["verify-appendix", "--entry", labels[(2 * k + i) % 6]], 0) for i in (0, 1)
        ]
        calls = []
        for argv, rc in valid:
            calls += [(argv, rc), (argv + ["--format", "json"], rc)]
        calls += rng.sample(CLI_NEGATIVE, CLI_NEGATIVES_PER_PASS)
        calls += rng.sample(CLI_MALFORMED, CLI_MALFORMED_PER_PASS)
        rng.shuffle(calls)
        return [Op("cli", tuple(argv), rc) for argv, rc in calls]

    def prepare(self, ops):
        def call(argv):
            cmd = [sys.executable, "-m", "repvar", *argv]

            def invoke():
                done = subprocess.run(
                    cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                    capture_output=True, text=True, timeout=120,
                )
                return done.returncode, done.stdout, done.stderr
            return invoke

        return [call(op.args) for op in ops]

    def expected(self, argv):
        if argv not in self._expected:
            self._expected[argv] = run_in_process(argv)
        return self._expected[argv]

    def check(self, op: Op, result) -> bool:
        rc, out, err = result
        if rc != op.expect or "Traceback" in err or (rc, out) != self.expected(op.args)[:2]:
            return False
        if "json" not in op.args or rc == 2:
            return True
        obj = json.loads(out)
        return json.dumps(obj, indent=2) + "\n" == out and _cli_json_ok(op.args, obj)


def _parse_sig(text):
    g, d = text.split(";")
    periods = tuple(sorted(int(t) for t in d[2:].split(",") if t))
    return int(g[2:]), periods


def _cli_json_ok(argv, obj) -> bool:
    """The JSON payload's answer agrees with the oracle for its inputs."""
    name = subcommand(argv)
    if name == "euler":
        return obj["chi"] == str(orc.chi(*_parse_sig(argv[1])))
    if name == "validate":
        g, periods = _parse_sig(argv[1])
        return obj["ok"] is orc.is_hyperbolic(g, periods)
    if name == "z1-principal":
        return obj["z1"] == orc.z1_principal(*_parse_sig(argv[2]), argv[3])
    if name == "z1-alternating":
        g, periods = _parse_sig(argv[2])
        n = int(argv[4])
        types = [orc.balanced_type(n, d) for d in periods]
        return obj["z1"] == orc.z1_alternating(g, types, n)
    if name == "upper-bound":
        g, periods = _parse_sig(argv[1])
        label = argv[2]
        if label.startswith(("SO(", "SU(")):
            n = int(label[3:-1])
            dim, rank = (n * (n - 1) // 2, n // 2) if label[:2] == "SO" else (n * n - 1, n - 1)
        else:
            dim, rank = orc.lie_dim(label), orc.lie_rank(label)
        return obj["bound"] == str(orc.upper_bound(g, periods, dim, rank))
    if name == "density":
        g, periods = _parse_sig(argv[1])
        return obj["dense"] is not (g == 0 and periods in orc.NOT_DENSE)
    if name == "triangle-witness":
        triple, w = tuple(int(t) for t in argv[1:4]), obj["witness"]
        return obj["triple"] == list(triple) and _witness_ok(
            triple, obj["strict"], None if w is None else tuple(w)
        )
    if name == "scan-triples":
        dmax = int(argv[2])
        return [tuple(t) for t in obj["no_strict_witness"]] == [
            t for t in orc.WITNESS_FAILURES if max(t) <= dmax
        ]
    if name == "interval":
        return _interval_ok(int(argv[1]), int(argv[3]), obj["a"])
    if name == "verify-appendix":
        (entry,) = obj["entries"]
        expected = shipped_expected(argv[2])
        return obj["ok"] is True and entry["generates_alternating"] is True and all(
            entry[key] == value for key, value in expected.items()
        )
    if name == "tables":
        if argv[1] == "genus0":
            return obj["values"] == _expected_cells("genus0", int(argv[3]))[0]
        return obj["cells"] == [[str(v) for v in row] for row in _expected_cells(argv[1])]
    return False


WORKLOADS = {w.name: w for w in (Certify, Survey, Cli)}
