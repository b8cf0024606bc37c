from fractions import Fraction

import pytest
from fixtures import (
    CORRECTED_E6_FORM,
    PAPER_DEFECT_TABLE,
    PAPER_TMINUSDIM_TABLE,
    PRINTED_GENUS0_FORMS,
)
from repvar import report
from repvar.cocycle import density_criterion_compare, z1_dim_principal
from repvar.eigen import principal_fixed_dim
from repvar.liedata import dimension, exponents, parse_root_system
from repvar.presentation import FuchsianPresentation
from repvar.report import (
    COLUMNS,
    defect_table,
    genus0_all2_values,
    render_table_text,
    table_json_obj,
    tminusdim_table,
)


def test_defect_table_matches_printed_values():
    table = defect_table()
    assert table.row_labels == tuple(str(n) for n in range(2, 8))
    assert table.col_labels == COLUMNS
    for n in range(2, 8):
        assert table.cells[n - 2] == PAPER_DEFECT_TABLE[n], f"row n={n}"


def test_defect_cells_equal_fix_minus_dim_over_n():
    table = defect_table()
    for i, n in enumerate(range(2, 8)):
        for j, label in enumerate(COLUMNS):
            rs = parse_root_system(label)
            regrouped = principal_fixed_dim(rs, n) - Fraction(dimension(rs), n)
            # the same defect summed exponent by exponent, without the fixed
            # dimension or dim G: sum_e (1 + 2 floor(e/n)) - (2e + 1)/n
            per_exponent = sum(
                Fraction(1 + 2 * (e // n)) - Fraction(2 * e + 1, n) for e in exponents(rs)
            )
            assert table.cells[i][j] == regrouped == per_exponent


def test_tminusdim_table_matches_printed_values():
    table = tminusdim_table()
    for i, periods in enumerate(((2, 2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 3, 4))):
        assert table.cells[i] == tuple(
            Fraction(v) for v in PAPER_TMINUSDIM_TABLE[periods]
        ), periods


def test_tminusdim_cells_are_margins_against_a1():
    # each cell is t_G - dim G; comparing against the A1 column reproduces
    # the subgroup criterion.  For the three triangle rows the A1 value is
    # 0; for (2,2,2,3) it is 6g - 6 + 2m = 2, exactly as printed.
    table = tminusdim_table()
    a1 = COLUMNS.index("A1")
    for i, periods in enumerate(((2, 2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 3, 4))):
        p = FuchsianPresentation(0, periods)
        a1_value = table.cells[i][a1]
        assert a1_value == 6 * p.genus - 6 + 2 * p.m
        for j, label in enumerate(COLUMNS):
            rs = parse_root_system(label)
            t_g = z1_dim_principal(p, rs)
            assert table.cells[i][j] == t_g - dimension(rs)
            assert density_criterion_compare(
                t_g, dimension(rs), z1_dim_principal(p, parse_root_system("A1")), 3
            ) == (table.cells[i][j] > a1_value)


def test_genus0_values_match_direct_computation(monkeypatch):
    # the op computes directly from the cocycle dimension; substitute m=5
    assert genus0_all2_values(5) == (4, 44, 84, 144, 36, 12)
    assert genus0_all2_values(6)[0] == 6  # 2m - 6 at m = 6
    # the regrouping check is an explicit raise, so it survives python -O
    monkeypatch.setattr(report, "principal_fixed_dim", lambda rs, d: 0)
    with pytest.raises(ArithmeticError, match="regrouped"):
        genus0_all2_values(5)


def test_genus0_printed_forms():
    # five of the six printed linear forms match the direct computation for
    # every m; the printed E6 intercept (-136) contradicts the printed
    # defect table (n=2 row forces fix = 38, hence intercept -156), so the
    # E6 column is checked against the corrected form
    for m in range(5, 41):
        values = genus0_all2_values(m)
        for j, (slope, intercept) in enumerate(PRINTED_GENUS0_FORMS):
            if COLUMNS[j] == "E6":
                slope, intercept = CORRECTED_E6_FORM
                assert values[j] != PRINTED_GENUS0_FORMS[j][0] * m + PRINTED_GENUS0_FORMS[j][1]
            assert values[j] == slope * m + intercept, (m, COLUMNS[j])


def test_table_rendering():
    table = defect_table()
    text = render_table_text(table)
    lines = text.splitlines()
    assert len(lines) == 7
    assert lines[0].split() == ["defect", *COLUMNS]
    assert "-7/2" in lines[1]
    obj = table_json_obj(table)
    assert list(obj) == ["table", "rows", "cols", "cells"]
    assert obj["cells"][0][3] == "-4"  # (n=2, E8)
    assert obj["cells"][3][4] == "8/5"  # (n=5, F4)
