"""The package surface, and which modules each CLI call loads."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import repvar
from repvar.permgrp import APPENDIX_ENTRIES, entry_to_text

EXPORTS = [
    "APPENDIX_ENTRIES", "AppendixEntry", "AppendixReport", "BadPeriodError",
    "DensityVerdict", "FuchsianPresentation", "MismatchedPeriodsError",
    "NonHyperbolicError", "NonIntegerResultError", "OrderMismatchError", "Permutation",
    "RootSystem", "StabilizerChain", "balanced_class", "defect_table",
    "density_criterion_compare", "dimension", "euler_characteristic",
    "exceptional_inequality", "exponents", "exterior_square_fixed_dim",
    "generates_alternating", "genus0_all2_values", "group_dim_rank", "group_order",
    "interval_coprime", "is_so3_dense", "parse_presentation", "parse_root_system",
    "perm_compose", "perm_from_cycles", "perm_order", "perm_parity", "principal_fixed_dim",
    "scan_hyperbolic_triples", "tminusdim_table", "triangle_witness", "upper_bound",
    "validate", "verify_appendix_entry", "z1_dim", "z1_dim_alternating_so",
    "z1_dim_principal",
]


def test_exports_resolve_to_their_module_attributes():
    assert repvar.__all__ == EXPORTS
    modules = [
        importlib.import_module(f"repvar.{m}")
        for m in ("cocycle", "density", "eigen", "liedata", "permgrp", "presentation", "report")
    ]
    for name in EXPORTS:
        bound = [getattr(m, name) for m in modules if hasattr(m, name)]
        assert bound and all(b is getattr(repvar, name) for b in bound), name
    namespace = {}
    exec("from repvar import *", namespace)
    assert {name: namespace[name] for name in EXPORTS} == {
        name: getattr(repvar, name) for name in EXPORTS
    }
    assert not hasattr(repvar, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        repvar.no_such_name
    # the package keeps no SU(n) eigenvalue profiles: acceptance 8 checks the
    # centralizer bound on the plain tuples of tests/oracles.py
    eigen = importlib.import_module("repvar.eigen")
    for name in (
        "EigenProfile", "cycle_type_std_eigenprofile", "principal_eigenprofile",
        "su_centralizer_dim",
    ):
        assert not hasattr(eigen, name), name


# the exported names no module of the package uses, each with why it stays
UNCALLED_EXPORTS = {
    # the paper's subgroup-comparison criterion, t_G - dim G > t_H - dim H
    "density_criterion_compare",
    # that criterion against SO(3) on principal data; perfbench's survey calls it
    "exceptional_inequality",
}

# the public module-level functions and classes outside __all__ that no module
# of the package uses, each with why it stays
UNCALLED_PUBLIC_DEFS = {
    # the triple-file writer README documents; the tests write triple files with it
    "entry_to_text",
}


def test_every_export_is_used_inside_the_package():
    # a name counts as used where it is read (a Load of a Name or Attribute)
    # or imported; defining or assigning it is not a use
    src = pathlib.Path(repvar.__file__).parent
    used, defined = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    exported = set(repvar.__all__)
    assert sorted(exported - used - UNCALLED_EXPORTS) == []
    # and the allowlist names only exported names that are in fact unused
    assert sorted(UNCALLED_EXPORTS - (exported - used)) == []
    # public functions and classes outside __all__ follow the same rule
    unexported = defined - exported
    assert sorted(unexported - used - UNCALLED_PUBLIC_DEFS) == []
    assert sorted(UNCALLED_PUBLIC_DEFS - (unexported - used)) == []


STDLIB_PROBE = """\
import importlib, pkgutil, sys
before = set(sys.modules)
import repvar
names = [m.name for m in pkgutil.iter_modules(repvar.__path__)]
for name in names:
    importlib.import_module("repvar." + name)
print(" ".join(names))
print(" ".join(sorted({k.split(".")[0] for k in set(sys.modules) - before})))
"""


def test_runtime_imports_only_the_standard_library():
    # README promises no runtime dependencies.  Site .pth files load some
    # third-party modules before any import, so only what repvar adds counts.
    out = subprocess.run(
        [sys.executable, "-c", STDLIB_PROBE], capture_output=True, text=True, check=True,
    ).stdout
    submodules, added = (line.split() for line in out.splitlines())
    assert {"__main__", "cli", "density", "eigen", "liedata", "permgrp", "report"} <= set(submodules)
    assert "repvar" in added
    assert [m for m in added if m != "repvar" and m not in sys.stdlib_module_names] == []


PROBE = """\
import sys
import repvar
if sys.argv[1:]:
    from repvar.cli import main
    main(sys.argv[1:])
print(" ".join(sorted(k for k in sys.modules if k.split(".")[0] == "repvar")))
print(" ".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""

FORMULAS = ["repvar.cocycle", "repvar.eigen", "repvar.liedata", "repvar.presentation"]


def test_each_call_loads_only_what_its_subcommand_needs(tmp_path):
    triple = tmp_path / "triple.txt"
    triple.write_text(entry_to_text(APPENDIX_ENTRIES[0]), encoding="utf-8")
    cli = ["repvar", "repvar.cli"]
    cases = [
        ([], ["repvar"]),
        (["euler", "g=0;d=2,3,7"], cli + ["repvar.presentation"]),
        (["density", "g=0;d=2,3,7"], cli + ["repvar.density", "repvar.presentation"]),
        (["z1", "principal", "g=0;d=2,3,7", "E8"], cli + FORMULAS),
        (["z1", "alternating", "g=0;d=2,3,7", "--degree", "21"], cli + FORMULAS),
        (
            ["z1", "alternating", "g=0;d=2,4,6", "--degree", "14", "--triple", str(triple)],
            cli + FORMULAS[:3] + ["repvar.permgrp", "repvar.presentation"],
        ),
        (["tables", "genus0", "--m", "5"], cli + FORMULAS + ["repvar.report"]),
        (["no-such-command"], cli),
    ]
    for argv, expected in cases:
        out = subprocess.run(
            [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, check=True,
        ).stdout
        *_, loaded, heavy = out.split("\n")[:-1]
        assert loaded.split() == sorted(expected), argv
        # records are plain classes, so no call pays for dataclasses or inspect
        assert heavy == "", argv


def test_records_keep_the_frozen_record_contract(monkeypatch):
    from repvar.density import (
        DensityVerdict, ExceptionalSet, GenusPositive, IndexTwoRealization, InductiveReduction,
    )
    from repvar.presentation import FuchsianPresentation

    parent = IndexTwoRealization(FuchsianPresentation(0, (2, 4, 5)))
    cases = [
        (
            FuchsianPresentation(0, (7, 3, 2)), (0, (2, 3, 7)),
            "FuchsianPresentation(genus=0, periods=(2, 3, 7))",
        ),
        (
            DensityVerdict(parent, "x"), (parent, "x"),
            "DensityVerdict(reason=IndexTwoRealization(parent=FuchsianPresentation("
            "genus=0, periods=(2, 4, 5))), note='x')",
        ),
        (
            InductiveReduction((2, 3), (2, 3, 7), 5), ((2, 3), (2, 3, 7), 5),
            "InductiveReduction(retained=(2, 3), split=(2, 3, 7), auxiliary=5)",
        ),
    ]
    for record, values, text in cases:
        assert repr(record) == text
        assert record == type(record)(*values) and hash(record) == hash(values), text
        assert record != values and record != DensityVerdict(GenusPositive()), text
    assert GenusPositive() == GenusPositive() and GenusPositive() != ExceptionalSet()
    assert hash(GenusPositive()) == hash(())
    # keyword construction and defaults
    assert DensityVerdict(note="x", reason=parent) == DensityVerdict(parent, "x")
    assert DensityVerdict(reason=GenusPositive()) == DensityVerdict(GenusPositive(), "")
    # fields are read-only: assigning or deleting one raises AttributeError
    p = FuchsianPresentation(0, (2, 3, 7))
    for name in ("genus", "periods"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p == FuchsianPresentation(0, (2, 3, 7))
    # positional class patterns match fields in declaration order
    match p:
        case FuchsianPresentation(genus, periods):
            assert (genus, periods) == (0, (2, 3, 7))
        case _:
            pytest.fail("positional pattern did not match")
    # __post_init__ is looked up on each construction, so a patched one runs
    seen = []
    monkeypatch.setattr(FuchsianPresentation, "__post_init__", lambda self: seen.append(self))
    q = FuchsianPresentation(1, (9, 2))
    assert seen == [q] and q.periods == (9, 2)
