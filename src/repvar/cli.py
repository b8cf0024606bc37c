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
import os
import sys

from . import SCHEMA, __version__

# Each handler imports the modules it uses when it runs, so a call loads
# only what its subcommand needs.


def dump_json(obj: dict) -> str:
    """Canonical JSON rendering; parsing and re-dumping is byte-identical."""
    import json

    return json.dumps(obj, indent=2) + "\n"


def _emit(args, text: str, **fields) -> None:
    """Print ``text``, or with ``--format json`` the command's JSON record."""
    if args.format == "json":
        sys.stdout.write(dump_json({"schema": SCHEMA, "command": args.name, **fields}))
    else:
        sys.stdout.write(text)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _int(text: str) -> int:
    """An ``INT_TOKEN``, or one negated; each handler checks the range."""
    from .presentation import INT_TOKEN

    if INT_TOKEN.fullmatch(text.removeprefix("-")) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _cmd_euler(args) -> int:
    from .presentation import euler_characteristic, parse_signature

    genus, periods = parse_signature(args.presentation)
    chi = euler_characteristic(genus, periods)
    _emit(args, f"{chi}\n", presentation=args.presentation.strip(), chi=str(chi))
    return 0


def _cmd_validate(args) -> int:
    from .presentation import NonHyperbolicError, parse_presentation

    try:
        p = parse_presentation(args.presentation)
    except NonHyperbolicError as exc:
        _emit(
            args, f"invalid NonHyperbolic: {exc}\n",
            ok=False, error="NonHyperbolic", detail=str(exc),
        )
        return 1
    chi = p.euler_characteristic()
    _emit(args, f"ok {p} chi={chi}\n", ok=True, presentation=str(p), chi=str(chi))
    return 0


def _cmd_z1_principal(args) -> int:
    from .cocycle import z1_dim_principal
    from .liedata import dimension, parse_root_system
    from .presentation import parse_presentation

    p = parse_presentation(args.presentation)
    rs = parse_root_system(args.root_system)
    z1 = z1_dim_principal(p, rs)
    _emit(
        args, f"{z1}\n", presentation=str(p), root_system=str(rs),
        z1=z1, dim=dimension(rs), t_minus_dim=z1 - dimension(rs),
    )
    return 0


def _cmd_z1_alternating(args) -> int:
    from .cocycle import z1_dim_alternating_so
    from .eigen import balanced_class
    from .liedata import so_dim
    from .presentation import parse_presentation

    p = parse_presentation(args.presentation)
    degree = args.degree
    if args.triple is not None:
        from .permgrp import parse_entry_text, verify_appendix_entry

        with open(args.triple, encoding="utf-8") as handle:
            entry = parse_entry_text(handle.read())
        if entry.degree != degree:
            raise ValueError(f"triple file degree {entry.degree} != --degree {degree}")
        if p.genus != 0 or tuple(sorted(entry.periods)) != p.periods:
            raise ValueError(f"triple file gamma={_csv(entry.periods)} does not name {p}")
        failed = " ".join(f"{k}=FAIL" for k, ok in verify_appendix_entry(entry).checks if not ok)
        if failed:
            raise ValueError(f"triple file is not certified: {failed}")
        generators = [x.cycle_type() for x in entry.generators]
        source = os.path.basename(args.triple)
    else:
        generators = [balanced_class(degree, d) for d in p.periods]
        source = "balanced-classes"
    z1 = z1_dim_alternating_so(p, generators, degree)
    dim_so = so_dim(degree - 1)
    _emit(
        args, f"{z1}\n", presentation=str(p), degree=degree, generators=source,
        z1=z1, so_dim=dim_so, margin=z1 - dim_so,
    )
    return 0


def _cmd_upper_bound(args) -> int:
    from .cocycle import upper_bound
    from .liedata import group_dim_rank
    from .presentation import parse_presentation

    p = parse_presentation(args.presentation)
    dim, rank = group_dim_rank(args.group)
    bound = upper_bound(p, dim, rank)
    _emit(
        args, f"{bound}\n", presentation=str(p), group=args.group.strip(),
        dim=dim, rank=rank, bound=str(bound),
    )
    return 0


# the reason fields whose text label differs from their JSON key
_REASON_LABELS = {"angles": "a", "auxiliary": "d"}


def _reason_fields(reason) -> tuple[str, dict]:
    """Text and JSON forms of a density reason, both led by its kind.

    Fields render in the record's ``_fields`` order: a tuple as
    ``label=(csv)`` and a JSON list, an int bare, anything else as its ``str``.
    """
    kind = type(reason).__name__
    words, obj = [kind], {"kind": kind}
    for name in reason._fields:
        value = getattr(reason, name)
        if isinstance(value, tuple):
            shown, obj[name] = f"({_csv(value)})", list(value)
        elif isinstance(value, int):
            shown = obj[name] = value
        else:
            shown = obj[name] = str(value)
        words.append(f"{_REASON_LABELS.get(name, name)}={shown}")
    return " ".join(words), obj


def _cmd_density(args) -> int:
    from .density import is_so3_dense
    from .presentation import parse_presentation

    p = parse_presentation(args.presentation)
    verdict = is_so3_dense(p)
    reason_text, reason = _reason_fields(verdict.reason)
    text = ("dense " if verdict.dense else "not-dense ") + reason_text + "\n"
    note = {}
    if verdict.note:
        text += f"note: {verdict.note}\n"
        note["note"] = verdict.note
    _emit(args, text, presentation=str(p), dense=verdict.dense, reason=reason, **note)
    return 0


def _cmd_triangle_witness(args) -> int:
    from .density import triangle_witness

    strict = not args.non_strict
    witness = triangle_witness(args.d1, args.d2, args.d3, strict=strict)
    found = witness is not None
    _emit(
        args, (_csv(witness) if found else "none") + "\n",
        triple=[args.d1, args.d2, args.d3], strict=strict,
        witness=list(witness) if found else None,
    )
    return 0 if found else 1


def _cmd_scan_triples(args) -> int:
    from .density import scan_hyperbolic_triples

    failures = scan_hyperbolic_triples(args.dmax)
    _emit(
        args, "".join(_csv(t) + "\n" for t in failures),
        dmax=args.dmax, no_strict_witness=[list(t) for t in failures],
    )
    return 0


def _cmd_interval(args) -> int:
    from .density import interval_coprime

    value = interval_coprime(args.d, args.case)
    found = value is not None
    _emit(args, f"{value}\n" if found else "none\n", d=args.d, case=args.case, a=value)
    return 0 if found else 1


def _flag(b: bool) -> str:
    return "ok" if b else "FAIL"


def _cmd_verify_appendix(args) -> int:
    from .permgrp import APPENDIX_ENTRIES, entry_by_label, verify_appendix_entry

    entries = [entry_by_label(args.entry)] if args.entry is not None else APPENDIX_ENTRIES
    reports = [verify_appendix_entry(e) for e in entries]
    all_ok = all(r.ok for r in reports)
    lines = [
        " ".join([r.label, *(f"{k}={_flag(ok)}" for k, ok in r.checks), f"z1={r.z1_dim}",
                  f"so_dim={r.so_dim} margin={r.margin} positive={_flag(r.margin_positive)}"])
        for r in reports
    ]
    lines.append("all ok" if all_ok else "FAILED")
    records = [
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
    ]
    _emit(args, "\n".join(lines) + "\n", entries=records, ok=all_ok)
    return 0 if all_ok else 1


def _cmd_tables(args) -> int:
    from .report import (
        COLUMNS, defect_table, genus0_all2_values, render_table_text, table_json_obj,
        tminusdim_table,
    )

    if args.table == "genus0":
        if args.m is None:
            raise ValueError("tables genus0 requires --m")
        values = genus0_all2_values(args.m)
        text = "  ".join(f"{c}={v}" for c, v in zip(COLUMNS, values)) + "\n"
        _emit(args, text, table="genus0", m=args.m, cols=list(COLUMNS), values=list(values))
        return 0
    if args.m is not None:
        raise ValueError(f"tables {args.table} takes no --m (only genus0 does)")
    table = defect_table() if args.table == "defect" else tminusdim_table()
    _emit(args, render_table_text(table), **table_json_obj(table))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    def leaf(group, name: str, func, help: str) -> argparse.ArgumentParser:
        s = group.add_parser(name, parents=[fmt], help=help)
        # the command name is the parser path below the program, hyphen-joined
        s.set_defaults(func=func, name=s.prog.split(" ", 1)[1].replace(" ", "-"))
        return s

    parser = argparse.ArgumentParser(
        prog="repvar",
        description="Exact computations on Fuchsian group representation varieties.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    s = leaf(sub, "euler", _cmd_euler, "Euler characteristic of a signature")
    s.add_argument("presentation")

    s = leaf(sub, "validate", _cmd_validate, "check a signature is hyperbolic")
    s.add_argument("presentation")

    z1 = sub.add_parser("z1", help="cocycle-space dimensions")
    z1_sub = z1.add_subparsers(dest="z1_command", required=True)
    s = leaf(z1_sub, "principal", _cmd_z1_principal, "principal representation")
    s.add_argument("presentation")
    s.add_argument("root_system")
    s = leaf(z1_sub, "alternating", _cmd_z1_alternating, "alternating image in SO(N-1)")
    s.add_argument("presentation")
    s.add_argument("--degree", type=_int, required=True)
    s.add_argument("--triple", help="file in the gamma=...;degree=... triple format")

    s = leaf(sub, "upper-bound", _cmd_upper_bound, "cocycle dimension upper bound")
    s.add_argument("presentation")
    s.add_argument("group", help="root system (E8) or classical group (SO(13))")

    s = leaf(sub, "density", _cmd_density, "SO(3)-density classification")
    s.add_argument("presentation")

    s = leaf(sub, "triangle-witness", _cmd_triangle_witness, "coprime rotation angles")
    s.add_argument("d1", type=_int)
    s.add_argument("d2", type=_int)
    s.add_argument("d3", type=_int)
    s.add_argument("--non-strict", action="store_true")

    s = leaf(sub, "scan-triples", _cmd_scan_triples, "triples with no strict witness")
    s.add_argument("--dmax", type=_int, required=True)

    s = leaf(sub, "interval", _cmd_interval, "coprime interval representative")
    s.add_argument("d", type=_int)
    s.add_argument("--case", type=_int, choices=(1, 2, 3), required=True)

    s = leaf(sub, "verify-appendix", _cmd_verify_appendix, "certify the shipped triples")
    s.add_argument("--entry", help="label like 2,4,6 (default: all six)")

    s = leaf(sub, "tables", _cmd_tables, "reproduce the numeric tables")
    s.add_argument("table", choices=("defect", "tminusdim", "genus0"))
    s.add_argument("--m", type=_int, help="period count for the genus0 table")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # chi's denominator may pass Python's digit limit on int <-> str; lift it for this call
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
