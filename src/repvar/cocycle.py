"""Exact evaluation of the cocycle-dimension formula and its companion bounds.

For a group with signature (g; d_1, ..., d_m) acting on a real vector space
V, the space of 1-cocycles has dimension

    (2g - 1) dim V + dim (V*)^Gamma + sum_j (dim V - fix_j)
  = (1 - chi) dim V + dim (V*)^Gamma + sum_j (dim V / d_j - fix_j),

where fix_j is the fixed-space dimension of the image of the j-th torsion
generator.  Both lines are evaluated on every call and must agree; the
wrappers below supply the fix_j for the two concrete representation families
the package knows how to build (principal images on the adjoint
representation, permutation images on the exterior square of the standard
representation).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .eigen import exterior_square_fixed_dim, principal_fixed_dim
from .liedata import RootSystem, dimension, so_dim
from .presentation import FuchsianPresentation


class MismatchedPeriodsError(ValueError):
    """Torsion data does not pair up with the presentation's period list."""


class NonIntegerResultError(ValueError):
    """The rational form of the cocycle dimension failed to be an integer."""


class OrderMismatchError(ValueError):
    """A supplied permutation's order differs from its period."""


def z1_dim(
    p: FuchsianPresentation,
    torsion: Sequence[tuple[int, int]],
    dim_v: int,
    invariant_dual_dim: int = 0,
) -> int:
    """Cocycle-space dimension of an action on a ``dim_v``-dimensional module.

    ``torsion`` lists (period, fixed-space dimension) pairs, one per torsion
    generator; ``invariant_dual_dim`` is dim (V*)^Gamma, a caller input since
    it is not computable from the signature alone.  The periods must be the
    presentation's, so each is >= 2.  Evaluates both lines of the dimension
    formula exactly and checks they agree and are integral; they are equal
    for any fix data, so the check guards only the evaluation of chi, and a
    failure raises, never rounds.
    """
    if dim_v < 0 or invariant_dual_dim < 0:
        raise ValueError("dimensions must be non-negative")
    for _, fix in torsion:
        if not 0 <= fix <= dim_v:
            raise ValueError(f"fixed dimension {fix} outside 0..{dim_v}")
    if tuple(sorted(d for d, _ in torsion)) != p.periods:
        raise MismatchedPeriodsError(
            f"torsion periods {sorted(d for d, _ in torsion)} do not match "
            f"presentation periods {list(p.periods)}"
        )
    first = (
        (2 * p.genus - 1) * dim_v
        + invariant_dual_dim
        + sum(dim_v - fix for _, fix in torsion)
    )
    chi = p.euler_characteristic()
    second = (
        (1 - chi) * dim_v
        + invariant_dual_dim
        + sum(Fraction(dim_v, d) - fix for d, fix in torsion)
    )
    if second.denominator != 1:
        raise NonIntegerResultError(f"cocycle dimension {second} is not an integer")
    if first != second:
        raise NonIntegerResultError(
            f"the two forms of the dimension formula disagree: {first} != {second}"
        )
    return first


def z1_dim_principal(p: FuchsianPresentation, rs: RootSystem) -> int:
    """Cocycle dimension at a principal representation on the adjoint module.

    The image is maximal, so its centralizer is finite and the dual
    invariants vanish; each torsion fix is the principal fixed dimension.
    """
    torsion = [(d, principal_fixed_dim(rs, d)) for d in p.periods]
    return z1_dim(p, torsion, dimension(rs))


def z1_dim_alternating_so(
    p: FuchsianPresentation,
    generators: Sequence[tuple[int, ...] | list[int]],
    degree: int,
) -> int:
    """Cocycle dimension for a degree-N alternating image inside SO(N-1).

    ``generators`` gives one cycle type (fixed points as 1s) per period,
    with orders matching the periods; the module is the exterior square of
    the standard representation, of dimension (N-1)(N-2)/2 = dim SO(N-1),
    irreducible for N >= 6, so the dual invariants vanish.  Degrees and
    orders are checked before any fixed dimension is counted.
    """
    if degree < 6:
        raise ValueError("need degree >= 6 for an irreducible exterior square")
    if len(generators) != len(p.periods):
        raise MismatchedPeriodsError(
            f"{len(generators)} generators for {len(p.periods)} periods"
        )
    types = list(map(tuple, generators))
    for lengths in types:
        if sum(lengths) != degree:
            raise MismatchedPeriodsError(
                f"cycle type {lengths} does not fill {degree} points"
            )
    orders = [lcm(*lengths) for lengths in types]
    if tuple(sorted(orders)) != p.periods:
        raise OrderMismatchError(
            f"generator orders {sorted(orders)} do not match "
            f"periods {list(p.periods)}"
        )
    torsion = [(d, exterior_square_fixed_dim(t)) for d, t in zip(orders, types)]
    return z1_dim(p, torsion, so_dim(degree - 1))


def upper_bound(p: FuchsianPresentation, dim_g: int, rank: int) -> Fraction:
    """Exact upper bound (1 - chi) dim G + (2g + m + r) + (3/2) m r.

    Dominates every cocycle dimension at a Zariski-dense representation: the
    dual-invariant term is at most 2g + m + r and each torsion fix is at
    least dim G / d - (3/2) r.
    """
    if dim_g < 1 or rank < 1:
        raise ValueError("dimension and rank must be positive")
    chi = p.euler_characteristic()
    return (
        (1 - chi) * dim_g
        + (2 * p.genus + p.m + rank)
        + Fraction(3, 2) * p.m * rank
    )


def density_criterion_compare(t_g: int, dim_g: int, t_h: int, dim_h: int) -> bool:
    """True iff t_G - dim G > t_H - dim H (the subgroup-comparison criterion)."""
    return t_g - dim_g > t_h - dim_h


def exceptional_inequality(p: FuchsianPresentation, rs: RootSystem) -> bool:
    """Rewritten form of t_G - dim G > t_SO(3) - dim SO(3) for principal data.

    Evaluates (2g - 2 + m)(dim G - 3) - sum_j (principal_fixed_dim(d_j) - 1):
    the exponent 1 is SO(3)'s and contributes exactly 1 to every fixed
    dimension (periods are >= 2), which is the SO(3) term that drops out.
    Agrees with ``density_criterion_compare`` fed by ``z1_dim_principal``
    against the A1 data.
    """
    total = (2 * p.genus - 2 + p.m) * (dimension(rs) - 3)
    total -= sum(principal_fixed_dim(rs, d) - 1 for d in p.periods)
    return total > 0
