"""The package surface, and which modules each CLI call loads."""

import importlib
import subprocess
import sys

import pytest

import repvar
from repvar.permgrp import APPENDIX_ENTRIES, entry_to_text

EXPORTS = [
    "APPENDIX_ENTRIES", "AppendixEntry", "AppendixReport", "BadPeriodError",
    "ClassicalGroup", "DensityVerdict", "EigenProfile", "FuchsianPresentation",
    "MismatchedPeriodsError", "NonHyperbolicError", "NonIntegerResultError",
    "OrderMismatchError", "Permutation", "Rational", "RootSystem", "StabilizerChain",
    "TorsionFixedData", "balanced_class", "classical_dim", "classical_rank",
    "defect_table", "density_criterion_compare", "dimension", "euler_characteristic",
    "exceptional_inequality", "exponents", "exterior_square_fixed_dim",
    "generates_alternating", "genus0_all2_values", "group_order", "interval_coprime",
    "is_so3_dense", "parse_classical_group", "parse_presentation", "parse_root_system",
    "perm_compose", "perm_from_cycles", "perm_order", "perm_parity",
    "perm_std_eigenprofile", "principal_eigenprofile", "principal_fixed_dim",
    "scan_hyperbolic_triples", "strict_triangle", "su_centralizer_dim",
    "tminusdim_table", "triangle_witness", "upper_bound", "validate",
    "verify_appendix_entry", "z1_dim", "z1_dim_alternating_so", "z1_dim_principal",
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


STDLIB_PROBE = """\
import importlib, pkgutil, sys
before = set(sys.modules)
import repvar
names = [m.name for m in pkgutil.iter_modules(repvar.__path__) if m.name != "__main__"]
for name in names:
    importlib.import_module("repvar." + name)
print(" ".join(names))
print(" ".join(sorted({k.split(".")[0] for k in set(sys.modules) - before})))
"""


def test_runtime_imports_only_the_standard_library():
    # README promises no runtime dependencies.  Site .pth files load some
    # third-party modules before any import, so only what repvar adds counts;
    # __main__ is skipped because importing it runs the CLI.
    out = subprocess.run(
        [sys.executable, "-c", STDLIB_PROBE], capture_output=True, text=True, check=True,
    ).stdout
    submodules, added = (line.split() for line in out.splitlines())
    assert {"cli", "density", "eigen", "liedata", "permgrp", "report"} <= set(submodules)
    assert "repvar" in added
    assert [m for m in added if m != "repvar" and m not in sys.stdlib_module_names] == []


PROBE = """\
import sys
import repvar
if sys.argv[1:]:
    from repvar.cli import main
    main(sys.argv[1:])
print(" ".join(sorted(k for k in sys.modules if k.split(".")[0] == "repvar")))
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
        assert out.splitlines()[-1].split() == sorted(expected), argv
