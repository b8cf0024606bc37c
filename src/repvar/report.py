"""Computed reproductions of the two defect/dimension tables.

Every cell is computed from the formulas, never transcribed; the printed
values live only in the golden test fixtures.  Cells are exact rationals and
render as ``p/q`` with the denominator omitted when it is 1.
"""

from __future__ import annotations

from fractions import Fraction

from .cocycle import z1_dim_principal
from .eigen import principal_fixed_dim
from .liedata import RootSystem, dimension, parse_root_system
from .presentation import FuchsianPresentation, Record

COLUMNS = ("A1", "E6", "E7", "E8", "F4", "G2")

TMINUSDIM_ROWS = ((2, 2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 3, 4))

MAX_GENUS0_M = 10**4  # the signature has m periods; tables genus0 at 10^4: 1 s on 2 vCPUs


class Table(Record):
    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[Fraction, ...], ...]

    def cell(self, row_label: str, col_label: str) -> Fraction:
        return self.cells[self.row_labels.index(row_label)][self.col_labels.index(col_label)]


def _column_systems() -> tuple[RootSystem, ...]:
    return tuple(parse_root_system(label) for label in COLUMNS)


def defect_table() -> Table:
    """Per-order defect: the fixed dimension of an order-n principal image
    minus dim G / n, n = 2..7.

    Since dim G = sum_i (2 e_i + 1), this is sum_i ((1 + 2 floor(e_i/n)) -
    (2 e_i + 1)/n) over the exponents.
    """
    systems = _column_systems()
    rows = tuple(
        tuple(principal_fixed_dim(rs, n) - Fraction(dimension(rs), n) for rs in systems)
        for n in range(2, 8)
    )
    return Table("defect", tuple(str(n) for n in range(2, 8)), COLUMNS, rows)


def tminusdim_table() -> Table:
    """t_G - dim G at the principal representation for four period vectors."""
    systems = _column_systems()
    rows = []
    for periods in TMINUSDIM_ROWS:
        p = FuchsianPresentation(0, periods)
        rows.append(
            tuple(Fraction(z1_dim_principal(p, rs) - dimension(rs)) for rs in systems)
        )
    labels = tuple("(" + ",".join(str(d) for d in r) + ")" for r in TMINUSDIM_ROWS)
    return Table("tminusdim", labels, COLUMNS, tuple(rows))


def genus0_all2_values(m: int) -> tuple[int, ...]:
    """t_G - dim G on the signature (0; 2, ..., 2) with m periods, m >= 5.

    Computed directly from the cocycle dimension; an internal regrouping
    check (m - 2) dim G - m * fix guards the evaluation and raises
    ``ArithmeticError`` if the two disagree.
    """
    if m < 5:
        raise ValueError("need at least five periods (m = 4 all-2 is Euclidean)")
    if m > MAX_GENUS0_M:
        raise ValueError(f"m must be <= {MAX_GENUS0_M}")
    p = FuchsianPresentation(0, (2,) * m)
    values = []
    for rs in _column_systems():
        direct = z1_dim_principal(p, rs) - dimension(rs)
        regrouped = (m - 2) * dimension(rs) - m * principal_fixed_dim(rs, 2)
        if direct != regrouped:
            raise ArithmeticError(
                f"{rs}: direct value {direct} != regrouped value {regrouped}"
            )
        values.append(direct)
    return tuple(values)


def render_table_text(table: Table) -> str:
    """Fixed-width text layout mirroring the row/column arrangement."""
    header = [table.name] + list(table.col_labels)
    body = [
        [label] + [str(v) for v in row]
        for label, row in zip(table.row_labels, table.cells)
    ]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = []
    for line in [header] + body:
        lines.append("  ".join(tok.rjust(w) for tok, w in zip(line, widths)))
    return "\n".join(lines) + "\n"


def table_json_obj(table: Table) -> dict:
    return {
        "table": table.name,
        "rows": list(table.row_labels),
        "cols": list(table.col_labels),
        "cells": [[str(v) for v in row] for row in table.cells],
    }
