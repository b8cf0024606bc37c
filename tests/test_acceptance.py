"""Acceptance suite: every exit criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines for
passing criteria as well.  All comparisons are exact (integer or rational
equality); the only tolerance anywhere is the 5-second wall-clock budget of
criterion 4, which is part of that criterion's statement.

Criterion 3 compares the genus-0 values with the published linear forms,
the E6 entry corrected.  On (0; 2, ..., 2) with m periods, t_G - dim G is
(m - 2) dim G - m fix, where fix is the fixed dimension of the principal
order-2 element, so the published forms must satisfy two relations:

- the intercept is -2 dim G whatever fix is;
- slope + intercept / 4 + defect_2 = 0, with defect_2 = fix - dim G / 2 the
  n = 2 row of the published defect table (criterion 1).

The published E6 form 40m - 136 breaks both: dim E6 = 78 gives -156, and the
second relation gives 40 - 34 - 1 = 5.  The other five published forms obey
them, and 40m - 156 obeys both, so -136 is a misprint.  The criterion checks
the erratum from the fixtures alone and then the direct values against the
corrected forms; test_report.py pins the exact discrepancy.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from fixtures import (
    ALTERNATING_ORDERS,
    APPENDIX_DERIVED,
    CORRECTED_E6_FORM,
    EXCEPTIONAL_SET,
    INTERVAL_EXCEPTIONS,
    PAPER_DEFECT_TABLE,
    PAPER_TMINUSDIM_TABLE,
    PRINTED_GENUS0_FORMS,
    WITNESS_FAILURES,
)
from oracles import (
    class_to_permutation,
    ext_square_fixed_oracle,
    partitions,
    principal_multiplicities,
    std_multiplicities,
)
from repvar.cocycle import upper_bound, z1_dim, z1_dim_principal
from repvar.density import interval_coprime, is_so3_dense, scan_hyperbolic_triples
from repvar.eigen import exterior_square_fixed_dim, perm_order, perm_parity, principal_fixed_dim
from repvar.liedata import RootSystem, dimension
from repvar.permgrp import (
    APPENDIX_ENTRIES,
    generates_alternating,
    group_order,
    verify_appendix_entry,
)
from repvar.presentation import FuchsianPresentation
from repvar.report import COLUMNS, defect_table, genus0_all2_values, tminusdim_table

COLUMN_SYSTEMS = (
    RootSystem("A", 1), RootSystem("E", 6), RootSystem("E", 7),
    RootSystem("E", 8), RootSystem("F", 4), RootSystem("G", 2),
)


def _report(number: int, title: str, ok: bool, detail: str = "") -> bool:
    line = f"acceptance {number} ({title}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def test_acceptance_1_defect_table():
    table = defect_table()
    mismatches = [
        (n, COLUMNS[j])
        for i, n in enumerate(range(2, 8))
        for j in range(6)
        if table.cells[i][j] != PAPER_DEFECT_TABLE[n][j]
    ]
    anchors = (
        table.cell("2", "E8") == -4
        and table.cell("5", "F4") == Fraction(8, 5)
        and table.cell("7", "E7") == 0
    )
    ok = not mismatches and anchors
    assert _report(1, "defect table, 36 cells exact", ok, str(mismatches)) and ok


def test_acceptance_2_tminusdim_table():
    table = tminusdim_table()
    mismatches = []
    for i, periods in enumerate(((2, 2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 3, 4))):
        for j in range(6):
            if table.cells[i][j] != PAPER_TMINUSDIM_TABLE[periods][j]:
                mismatches.append((periods, COLUMNS[j]))
    anchors = (
        table.cell("(2,3,7)", "E8") == 12
        and table.cell("(2,4,5)", "G2") == 0
        and table.cell("(2,2,2,3)", "F4") == 16
    )
    ok = not mismatches and anchors
    assert _report(2, "dimension-margin table, 24 cells exact", ok, str(mismatches)) and ok


DIM_E6 = 78
E6 = COLUMNS.index("E6")


def _genus0_erratum_problems() -> list[str]:
    """Relations the published genus-0 forms violate, from the fixtures alone."""
    problems = []

    def defect_relation(j, form):
        slope, intercept = form
        return slope + Fraction(intercept, 4) + PAPER_DEFECT_TABLE[2][j] == 0

    for j, form in enumerate(PRINTED_GENUS0_FORMS):
        if j != E6 and not defect_relation(j, form):
            problems.append(f"printed {COLUMNS[j]} form {form} breaks the defect relation")
    printed = PRINTED_GENUS0_FORMS[E6]
    if defect_relation(E6, printed) or printed[1] == -2 * DIM_E6:
        problems.append(f"printed E6 form {printed} is not the misprint")
    if not defect_relation(E6, CORRECTED_E6_FORM) or CORRECTED_E6_FORM[1] != -2 * DIM_E6:
        problems.append(f"corrected E6 form {CORRECTED_E6_FORM} breaks a relation")
    if CORRECTED_E6_FORM[0] != printed[0]:
        problems.append("the corrected E6 form changes the slope")
    return problems


def test_acceptance_3_genus0_printed_linear_forms():
    problems = _genus0_erratum_problems()
    reference = list(PRINTED_GENUS0_FORMS)
    reference[E6] = CORRECTED_E6_FORM
    mismatches = []
    for m in range(5, 41):
        values = genus0_all2_values(m)
        for j, (slope, intercept) in enumerate(reference):
            expected = slope * m + intercept
            if values[j] != expected:
                mismatches.append((m, COLUMNS[j], values[j], expected))
    if mismatches:
        columns = sorted({c for _, c, _, _ in mismatches}, key=COLUMNS.index)
        m, column, direct, expected = mismatches[0]
        problems.append(
            f"{len(mismatches)} mismatches in {', '.join(columns)}; first: "
            f"m={m} {column} direct={direct} reference={expected}"
        )
    ok = not problems
    detail = "; ".join(problems) if problems else (
        f"E6 erratum: printed intercept {PRINTED_GENUS0_FORMS[E6][1]}, "
        f"corrected {CORRECTED_E6_FORM[1]} = -2 dim E6"
    )
    assert _report(3, "genus-0 linear forms, m=5..40", ok, detail) and ok


def test_acceptance_4_appendix_certification():
    start = time.perf_counter()
    ok = True
    for entry in APPENDIX_ENTRIES:
        report = verify_appendix_entry(entry)
        ok = ok and report.product_is_identity and all(report.order_matches)
        ok = ok and all(report.all_even) and report.generates_alternating
        ok = ok and group_order(list(entry.generators)) == ALTERNATING_ORDERS[entry.degree]
        ok = ok and all(
            perm_order(x) == d and perm_parity(x) == "even"
            for x, d in zip(entry.generators, entry.periods)
        )
        ok = ok and generates_alternating(list(entry.generators), entry.degree)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert _report(
        4, "six triples certified", ok, f"orders exact, {elapsed:.2f}s"
    ) and ok


def test_acceptance_5_appendix_positivity():
    ok = True
    details = []
    for entry in APPENDIX_ENTRIES:
        report = verify_appendix_entry(entry)
        frozen = APPENDIX_DERIVED[entry.label]
        ok = ok and report.margin == frozen["margin"] and report.margin > 0
        ok = ok and report.z1_dim == frozen["z1"]
        # re-derive the frozen fixes through the independent character oracle
        oracle_fixes = tuple(ext_square_fixed_oracle(x) for x in entry.generators)
        ok = ok and oracle_fixes == frozen["fixes"]
        details.append(f"{entry.label}:+{report.margin}")
    assert _report(5, "cocycle margin positive for all six", ok, " ".join(details)) and ok


def test_acceptance_6_density_classification():
    not_dense = set()
    for g in range(3):
        for m in range(6):
            for periods in itertools.combinations_with_replacement(range(2, 13), m):
                try:
                    p = FuchsianPresentation(g, periods)
                except ValueError:
                    continue
                if not is_so3_dense(p).dense:
                    not_dense.add((g, p.periods))
    classification_ok = not_dense == {(0, t) for t in EXCEPTIONAL_SET}
    scan_ok = set(scan_hyperbolic_triples(24)) == WITNESS_FAILURES
    ok = classification_ok and scan_ok
    assert _report(
        6, "density scan g<=2 m<=5 d<=12 and witness scan d<=24", ok,
        f"{len(not_dense)} not-dense signatures, "
        f"{len(scan_hyperbolic_triples(24))} witness failures",
    ) and ok


def test_acceptance_7_interval_sweep():
    bad = []
    for case in (1, 2, 3):
        for d in range(2, 10001):
            a = interval_coprime(d, case)
            if (a is None) != (d in INTERVAL_EXCEPTIONS[case]):
                bad.append((case, d))
                continue
            if a is None:
                continue
            if gcd(a, d) != 1 or not _in_interval(a, d, case):
                bad.append((case, d))
    ok = not bad
    assert _report(7, "interval representatives for d <= 10000", ok, str(bad[:5])) and ok


def _in_interval(a: int, d: int, case: int) -> bool:
    q = Fraction(a, d)
    if case == 1:
        return Fraction(1, 4) < q < Fraction(1, 2) or (
            q in (Fraction(1, 4), Fraction(1, 2)) and d in (2, 4)
        )
    if case == 2:
        return Fraction(1, 3) < q < Fraction(1, 2) or (
            q in (Fraction(1, 3), Fraction(1, 2)) and d in (2, 3)
        )
    return Fraction(1, 12) < q < Fraction(4, 15) or (q == Fraction(1, 12) and d == 12)


def test_acceptance_8_formula_identities():
    ok = True

    # both lines of the dimension formula on 1000 randomized instances
    rng = random.Random(8128)
    produced = 0
    while produced < 1000:
        g, m = rng.randint(0, 3), rng.randint(0, 6)
        try:
            p = FuchsianPresentation(g, tuple(rng.randint(2, 30) for _ in range(m)))
        except ValueError:
            continue
        dim_v = rng.randint(1, 300)
        torsion = tuple((d, rng.randint(0, dim_v)) for d in p.periods)
        dual = rng.randint(0, 8)
        value = z1_dim(p, torsion, dim_v, dual)
        first = (2 * g - 1) * dim_v + dual + sum(dim_v - f for _, f in torsion)
        second = (1 - p.euler_characteristic()) * dim_v + dual + sum(
            Fraction(dim_v, d) - f for d, f in torsion
        )
        ok = ok and value == first == second
        produced += 1

    # exterior-square orbit count vs character average, exhaustively; the sum
    # of squared standard multiplicities is dim of the GL(V) centralizer,
    # sum_{i,j} gcd(l_i, l_j) on the permutation module less the c^2 - (c-1)^2
    # its c-fold eigenvalue 1 gives over the standard one, c the cycle count
    profiles = []
    for degree in range(1, 11):
        for cycle_type in partitions(degree):
            x = class_to_permutation(cycle_type)
            lengths = x.cycle_type()
            ok = ok and exterior_square_fixed_dim(lengths) == ext_square_fixed_oracle(x)
            m = std_multiplicities(lengths)
            centralizer = sum(gcd(a, b) for a in lengths for b in lengths) - 2 * len(lengths) + 1
            ok = ok and sum(mj * mj for mj in m) == centralizer
            profiles.append(m)

    # SU(n) centralizer lower bound: dim Z(x) + 1, the sum of squared
    # multiplicities, against n^2 / k for n = sum of the k multiplicities
    systems = _systems_up_to_rank(12)
    for rs in systems:
        profiles.extend(principal_multiplicities(rs, d) for d in range(2, 25))
    for m in profiles:
        if sum(m) < 2:
            continue
        ok = ok and sum(mj * mj for mj in m) >= Fraction(sum(m) ** 2, len(m))

    # fixed-space lower bounds on every principal instance
    for rs in systems:
        dim, rank = dimension(rs), rs.rank
        for d in range(2, 25):
            fix = principal_fixed_dim(rs, d)
            ok = ok and fix >= Fraction(dim, d) - rank
            ok = ok and fix >= Fraction(dim, d) - Fraction(3, 2) * rank

    # the closed upper bound dominates every exact value in the same range
    presentations = [
        FuchsianPresentation(0, (2, 3, 7)),
        FuchsianPresentation(0, (2,) * 5),
        FuchsianPresentation(0, (24, 24, 24)),
        FuchsianPresentation(1, (2,)),
        FuchsianPresentation(3, ()),
    ]
    rng = random.Random(496)
    while len(presentations) < 40:
        g, m = rng.randint(0, 3), rng.randint(0, 6)
        try:
            presentations.append(
                FuchsianPresentation(g, tuple(rng.randint(2, 24) for _ in range(m)))
            )
        except ValueError:
            continue
    for p in presentations:
        for rs in systems:
            ok = ok and z1_dim_principal(p, rs) <= upper_bound(p, dimension(rs), rs.rank)

    assert _report(8, "formula identity and bound suite", ok) and ok


def _systems_up_to_rank(max_rank):
    systems = [RootSystem("A", n) for n in range(1, max_rank + 1)]
    systems += [RootSystem("B", n) for n in range(2, max_rank + 1)]
    systems += [RootSystem("C", n) for n in range(2, max_rank + 1)]
    systems += [RootSystem("D", n) for n in range(3, max_rank + 1)]
    systems += [RootSystem(f, r) for f, r in
                (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
    return systems
