"""Batch command-line front end.

Every subcommand is deterministic (identical invocation, byte-identical
output) and never prints a floating-point number; rationals appear as
``p/q`` or bare integers.  Results go to stdout, diagnostics to stderr.

Exit codes: 0 for a computed result, 1 when a check subcommand's answer is
mathematically negative (a failed certification, an invalid signature, a
witness that does not exist), 2 for usage or malformed input.  The
``density`` subcommand always exits 0: both verdicts are successful
classifications, and the verdict text/JSON carries the answer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .cocycle import upper_bound, z1_dim_alternating_so, z1_dim_principal
from .density import (
    DensityVerdict,
    ExceptionalSet,
    GenusPositive,
    IndexTwoRealization,
    InductiveReduction,
    TriangleWitness,
    interval_coprime,
    is_so3_dense,
    scan_hyperbolic_triples,
    triangle_witness,
)
from .eigen import balanced_class
from .liedata import (
    classical_dim,
    classical_rank,
    dimension,
    parse_classical_group,
    parse_root_system,
)
from .permgrp import (
    APPENDIX_ENTRIES,
    entry_by_label,
    parse_entry_text,
    verify_appendix_entry,
)
from .presentation import (
    NonHyperbolicError,
    SignatureError,
    euler_characteristic,
    parse_presentation,
    parse_signature,
)
from .report import (
    defect_table,
    genus0_all2_values,
    render_table_text,
    table_json_obj,
    tminusdim_table,
)

SCHEMA = 1


def dump_json(obj: dict) -> str:
    """Canonical JSON rendering; parsing and re-dumping is byte-identical."""
    return json.dumps(obj, indent=2) + "\n"


def _emit(args, text: str, obj: dict) -> None:
    if args.format == "json":
        sys.stdout.write(dump_json(obj))
    else:
        sys.stdout.write(text)


def _cmd_euler(args) -> int:
    genus, periods = parse_signature(args.presentation)
    chi = euler_characteristic(genus, periods)
    _emit(args, f"{chi}\n", {
        "schema": SCHEMA, "command": "euler",
        "presentation": args.presentation.strip(), "chi": str(chi),
    })
    return 0


def _cmd_validate(args) -> int:
    genus, periods = parse_signature(args.presentation)
    try:
        p = parse_presentation(args.presentation)
    except NonHyperbolicError as exc:
        _emit(args, f"invalid NonHyperbolic: {exc}\n", {
            "schema": SCHEMA, "command": "validate", "ok": False,
            "error": "NonHyperbolic", "detail": str(exc),
        })
        return 1
    chi = p.euler_characteristic()
    _emit(args, f"ok {p.text()} chi={chi}\n", {
        "schema": SCHEMA, "command": "validate", "ok": True,
        "presentation": p.text(), "chi": str(chi),
    })
    return 0


def _cmd_z1_principal(args) -> int:
    p = parse_presentation(args.presentation)
    rs = parse_root_system(args.root_system)
    z1 = z1_dim_principal(p, rs)
    _emit(args, f"{z1}\n", {
        "schema": SCHEMA, "command": "z1-principal",
        "presentation": p.text(), "root_system": rs.label(),
        "z1": z1, "dim": dimension(rs), "t_minus_dim": z1 - dimension(rs),
    })
    return 0


def _cmd_z1_alternating(args) -> int:
    p = parse_presentation(args.presentation)
    degree = args.degree
    if args.triple is not None:
        with open(args.triple, encoding="utf-8") as handle:
            entry = parse_entry_text(handle.read())
        if entry.degree != degree:
            raise ValueError(f"triple file degree {entry.degree} != --degree {degree}")
        generators = list(entry.generators)
        source = os.path.basename(args.triple)
    else:
        generators = [balanced_class(degree, d) for d in p.periods]
        source = "balanced-classes"
    z1 = z1_dim_alternating_so(p, generators, degree)
    so_dim = (degree - 1) * (degree - 2) // 2
    _emit(args, f"{z1}\n", {
        "schema": SCHEMA, "command": "z1-alternating",
        "presentation": p.text(), "degree": degree, "generators": source,
        "z1": z1, "so_dim": so_dim, "margin": z1 - so_dim,
    })
    return 0


def _cmd_upper_bound(args) -> int:
    p = parse_presentation(args.presentation)
    token = args.group
    try:
        rs = parse_root_system(token)
        dim, rank, label = dimension(rs), rs.rank, rs.label()
    except ValueError:
        g = parse_classical_group(token)
        dim, rank, label = classical_dim(g), classical_rank(g), str(g)
    bound = upper_bound(p, dim, rank)
    _emit(args, f"{bound}\n", {
        "schema": SCHEMA, "command": "upper-bound",
        "presentation": p.text(), "group": label,
        "dim": dim, "rank": rank, "bound": str(bound),
    })
    return 0


def _reason_fields(verdict: DensityVerdict) -> tuple[str, dict]:
    reason = verdict.reason
    if isinstance(reason, GenusPositive):
        return "GenusPositive", {"kind": "GenusPositive"}
    if isinstance(reason, ExceptionalSet):
        return "ExceptionalSet", {"kind": "ExceptionalSet"}
    if isinstance(reason, TriangleWitness):
        angles = ",".join(str(a) for a in reason.angles)
        return f"TriangleWitness a=({angles})", {
            "kind": "TriangleWitness", "angles": list(reason.angles),
        }
    if isinstance(reason, IndexTwoRealization):
        return f"IndexTwoRealization parent={reason.parent.text()}", {
            "kind": "IndexTwoRealization", "parent": reason.parent.text(),
        }
    if not isinstance(reason, InductiveReduction):
        raise TypeError(f"unknown density reason {reason!r}")
    retained = ",".join(str(d) for d in reason.retained)
    split = ",".join(str(d) for d in reason.split)
    return (
        f"InductiveReduction retained=({retained}) split=({split}) d={reason.auxiliary}",
        {
            "kind": "InductiveReduction",
            "retained": list(reason.retained),
            "split": list(reason.split),
            "auxiliary": reason.auxiliary,
        },
    )


def _cmd_density(args) -> int:
    p = parse_presentation(args.presentation)
    verdict = is_so3_dense(p)
    reason_text, reason_obj = _reason_fields(verdict)
    text = ("dense " if verdict.dense else "not-dense ") + reason_text + "\n"
    if verdict.note:
        text += f"note: {verdict.note}\n"
    obj = {
        "schema": SCHEMA, "command": "density", "presentation": p.text(),
        "dense": verdict.dense, "reason": reason_obj,
    }
    if verdict.note:
        obj["note"] = verdict.note
    _emit(args, text, obj)
    return 0


def _cmd_triangle_witness(args) -> int:
    witness = triangle_witness(args.d1, args.d2, args.d3, strict=not args.non_strict)
    found = witness is not None
    text = ",".join(str(a) for a in witness) + "\n" if found else "none\n"
    _emit(args, text, {
        "schema": SCHEMA, "command": "triangle-witness",
        "triple": [args.d1, args.d2, args.d3], "strict": not args.non_strict,
        "witness": list(witness) if found else None,
    })
    return 0 if found else 1


def _cmd_scan_triples(args) -> int:
    failures = scan_hyperbolic_triples(args.dmax)
    text = "".join(",".join(str(d) for d in t) + "\n" for t in failures)
    _emit(args, text, {
        "schema": SCHEMA, "command": "scan-triples", "dmax": args.dmax,
        "no_strict_witness": [list(t) for t in failures],
    })
    return 0


def _cmd_interval(args) -> int:
    value = interval_coprime(args.d, args.case)
    found = value is not None
    _emit(args, (f"{value}\n" if found else "none\n"), {
        "schema": SCHEMA, "command": "interval",
        "d": args.d, "case": args.case, "a": value,
    })
    return 0 if found else 1


def _cmd_verify_appendix(args) -> int:
    entries = [entry_by_label(args.entry)] if args.entry else list(APPENDIX_ENTRIES)
    reports = [verify_appendix_entry(e) for e in entries]
    flag = lambda b: "ok" if b else "FAIL"  # noqa: E731
    lines = []
    for r in reports:
        lines.append(
            f"{r.label} product={flag(r.product_is_identity)}"
            f" orders={flag(all(r.order_matches))}"
            f" parity={flag(all(r.all_even))}"
            f" alternating={flag(r.generates_alternating)}"
            f" z1={r.z1_dim} so_dim={r.so_dim} margin={r.margin}"
            f" positive={flag(r.margin_positive)}"
        )
    all_ok = all(r.ok for r in reports)
    lines.append("all ok" if all_ok else "FAILED")
    obj = {
        "schema": SCHEMA, "command": "verify-appendix",
        "entries": [
            {
                "label": r.label,
                "product_is_identity": r.product_is_identity,
                "order_matches": list(r.order_matches),
                "all_even": list(r.all_even),
                "generates_alternating": r.generates_alternating,
                "z1": r.z1_dim, "so_dim": r.so_dim,
                "margin": r.margin, "margin_positive": r.margin_positive,
                "ok": r.ok,
            }
            for r in reports
        ],
        "ok": all_ok,
    }
    _emit(args, "\n".join(lines) + "\n", obj)
    return 0 if all_ok else 1


def _cmd_tables(args) -> int:
    if args.table == "defect":
        table = defect_table()
    elif args.table == "tminusdim":
        table = tminusdim_table()
    else:
        if args.m is None:
            raise ValueError("tables genus0 requires --m")
        values = genus0_all2_values(args.m)
        labels = ("A1", "E6", "E7", "E8", "F4", "G2")
        text = "  ".join(f"{c}={v}" for c, v in zip(labels, values)) + "\n"
        _emit(args, text, {
            "schema": SCHEMA, "command": "tables", "table": "genus0",
            "m": args.m, "cols": list(labels), "values": list(values),
        })
        return 0
    obj = table_json_obj(table)
    obj = {"schema": SCHEMA, "command": "tables", **obj}
    _emit(args, render_table_text(table), obj)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="repvar",
        description="Exact computations on Fuchsian group representation varieties.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("euler", parents=[fmt], help="Euler characteristic of a signature")
    s.add_argument("presentation")
    s.set_defaults(func=_cmd_euler)

    s = sub.add_parser("validate", parents=[fmt], help="check a signature is hyperbolic")
    s.add_argument("presentation")
    s.set_defaults(func=_cmd_validate)

    z1 = sub.add_parser("z1", help="cocycle-space dimensions")
    z1_sub = z1.add_subparsers(dest="z1_command", required=True)
    s = z1_sub.add_parser("principal", parents=[fmt], help="principal representation")
    s.add_argument("presentation")
    s.add_argument("root_system")
    s.set_defaults(func=_cmd_z1_principal)
    s = z1_sub.add_parser("alternating", parents=[fmt], help="alternating image in SO(N-1)")
    s.add_argument("presentation")
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--triple", help="file in the gamma=...;degree=... triple format")
    s.set_defaults(func=_cmd_z1_alternating)

    s = sub.add_parser("upper-bound", parents=[fmt], help="cocycle dimension upper bound")
    s.add_argument("presentation")
    s.add_argument("group", help="root system (E8) or classical group (SO(13))")
    s.set_defaults(func=_cmd_upper_bound)

    s = sub.add_parser("density", parents=[fmt], help="SO(3)-density classification")
    s.add_argument("presentation")
    s.set_defaults(func=_cmd_density)

    s = sub.add_parser("triangle-witness", parents=[fmt], help="coprime rotation angles")
    s.add_argument("d1", type=int)
    s.add_argument("d2", type=int)
    s.add_argument("d3", type=int)
    s.add_argument("--non-strict", action="store_true")
    s.set_defaults(func=_cmd_triangle_witness)

    s = sub.add_parser("scan-triples", parents=[fmt], help="triples with no strict witness")
    s.add_argument("--dmax", type=int, required=True)
    s.set_defaults(func=_cmd_scan_triples)

    s = sub.add_parser("interval", parents=[fmt], help="coprime interval representative")
    s.add_argument("d", type=int)
    s.add_argument("--case", type=int, choices=(1, 2, 3), required=True)
    s.set_defaults(func=_cmd_interval)

    s = sub.add_parser("verify-appendix", parents=[fmt], help="certify the shipped triples")
    s.add_argument("--entry", help="label like 2,4,6 (default: all six)")
    s.set_defaults(func=_cmd_verify_appendix)

    s = sub.add_parser("tables", parents=[fmt], help="reproduce the numeric tables")
    s.add_argument("table", choices=("defect", "tminusdim", "genus0"))
    s.add_argument("--m", type=int, help="period count for the genus0 table")
    s.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (SignatureError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
