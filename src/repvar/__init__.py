"""Exact arithmetic for Fuchsian group representation varieties.

The package evaluates cocycle-space dimension formulas for concrete
representation families of cocompact oriented Fuchsian groups, classifies
SO(3)-density, reproduces the associated numeric tables, and certifies the
six shipped alternating-group generating triples.  Everything is computed in
exact integer/rational arithmetic.

``import repvar`` loads no submodule: each exported name loads its module on
first access (PEP 562), so a CLI call pays only for what its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

SCHEMA = 1  # version of every JSON object the package prints

_EXPORTS = {
    "cocycle": (
        "MismatchedPeriodsError", "NonIntegerResultError", "OrderMismatchError",
        "density_criterion_compare", "exceptional_inequality", "upper_bound", "z1_dim",
        "z1_dim_alternating_so", "z1_dim_principal",
    ),
    "density": (
        "DensityVerdict", "interval_coprime", "is_so3_dense",
        "scan_hyperbolic_triples", "triangle_witness",
    ),
    "eigen": (
        "Permutation", "balanced_class", "exterior_square_fixed_dim", "perm_compose",
        "perm_from_cycles", "perm_order", "perm_parity", "principal_fixed_dim",
    ),
    "liedata": (
        "RootSystem", "dimension", "exponents", "group_dim_rank", "parse_root_system",
    ),
    "permgrp": (
        "APPENDIX_ENTRIES", "AppendixEntry", "AppendixReport", "StabilizerChain",
        "generates_alternating", "group_order", "verify_appendix_entry",
    ),
    "presentation": (
        "BadPeriodError", "FuchsianPresentation", "NonHyperbolicError",
        "euler_characteristic", "parse_presentation", "validate",
    ),
    "report": ("defect_table", "genus0_all2_values", "tminusdim_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
