"""SO(3)-density classification with rational rotation-angle witnesses.

A signature is SO(3)-dense when the group admits a homomorphism to SO(3)
with dense image that keeps every torsion generator's order.  Exactly six
genus-0 triangle signatures fail:

    (2,4,6), (2,6,6), (3,4,4), (3,6,6), (2,6,10), (4,6,12).

Classification is driven by membership in that set; the verdict's reason
retraces which branch of the argument covers the signature (positive genus,
a spherical-triangle witness, an index-two realization inside a larger
triangle group, or one inductive reduction step for four or more periods).
The witness search over coprime angle numerators is kept as an independent,
fully computable cross-check: the strict search fails on exactly five
triples, all of them in the set above; (3,4,4) is the one member that does
carry a witness (its spherical realization generates the finite octahedral
group), which the verdict surfaces as a diagnostic note.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Union

from .presentation import BadPeriodError, FuchsianPresentation

EXCEPTIONAL_SIGNATURES = frozenset(
    {(2, 4, 6), (2, 6, 6), (3, 4, 4), (3, 6, 6), (2, 6, 10), (4, 6, 12)}
)

MAX_SCAN_DMAX = 200  # the scan's cost grows like dmax^3.2; 200 takes 13-17 s on 2 vCPUs

# triples whose periods fit inside the octahedral or icosahedral groups
_SHADOWED_TRIPLES = frozenset(
    {(2, 5, 5), (3, 3, 4), (3, 3, 5), (3, 4, 4), (3, 5, 5), (4, 4, 4), (5, 5, 5)}
)


@dataclass(frozen=True)
class GenusPositive:
    pass


@dataclass(frozen=True)
class ExceptionalSet:
    pass


@dataclass(frozen=True)
class TriangleWitness:
    angles: tuple[int, int, int]


@dataclass(frozen=True)
class InductiveReduction:
    """One reduction step: split the two largest periods off with a shared
    auxiliary period, leaving a shorter tuple."""

    retained: tuple[int, ...]
    split: tuple[int, int, int]
    auxiliary: int


@dataclass(frozen=True)
class IndexTwoRealization:
    parent: FuchsianPresentation


Reason = Union[
    GenusPositive, ExceptionalSet, TriangleWitness, InductiveReduction, IndexTwoRealization
]


@dataclass(frozen=True)
class DensityVerdict:
    """A classification: the branch of the argument, plus an optional diagnostic."""

    reason: Reason
    note: str = ""

    @property
    def dense(self) -> bool:
        return not isinstance(self.reason, ExceptionalSet)


def strict_triangle(q1: Fraction, q2: Fraction, q3: Fraction) -> bool:
    """Strict triangle inequality on three rationals from (0, 1/2]."""
    for q in (q1, q2, q3):
        if not 0 < q <= Fraction(1, 2):
            raise ValueError(f"angle fraction {q} outside (0, 1/2]")
    return q1 < q2 + q3 and q2 < q1 + q3 and q3 < q1 + q2


def triangle_witness(
    d1: int, d2: int, d3: int, strict: bool = True
) -> Optional[tuple[int, int, int]]:
    """Smallest (a1, a2, a3) realizing rotation angles of a spherical triangle.

    Searches lexicographically over numerators with gcd(a_i, d_i) = 1 and
    0 < a_i <= d_i/2 for angle fractions a_i/d_i satisfying the (strict, if
    flagged) triangle inequality; None when no such triple exists.  The
    triple must be hyperbolic; a period < 2 raises ``BadPeriodError``.
    """
    if min(d1, d2, d3) < 2:
        raise BadPeriodError(f"periods must be >= 2, got {min(d1, d2, d3)}")
    if not _is_hyperbolic(d1, d2, d3):
        raise ValueError(f"({d1},{d2},{d3}) is not a hyperbolic triple")
    for a1 in _coprime_numerators(d1):
        for a2 in _coprime_numerators(d2):
            # the triangle inequality says |q1 - q2| < q3 < q1 + q2 (<= if not strict)
            x, y = a1 * d2, a2 * d1
            a3 = coprime_in_interval(d3, abs(x - y), d1 * d2, x + y, d1 * d2, strict)
            if a3 is not None:
                return (a1, a2, a3)
    return None


def coprime_in_interval(
    d: int, lo_num: int, lo_den: int, hi_num: int, hi_den: int, strict: bool
) -> Optional[int]:
    """Least a with 1 <= a <= d // 2, gcd(a, d) = 1 and lo < a/d < hi, or None.

    lo = lo_num/lo_den, hi = hi_num/hi_den (positive denominators); the
    bounds themselves are allowed when not strict.
    """
    if strict:
        first, last = lo_num * d // lo_den + 1, (hi_num * d - 1) // hi_den
    else:
        first, last = -(-lo_num * d // lo_den), hi_num * d // hi_den
    candidates = range(max(first, 1), min(last, d // 2) + 1)
    return next((a for a in candidates if gcd(a, d) == 1), None)


def _is_hyperbolic(d1: int, d2: int, d3: int) -> bool:
    return d1 * d2 + d1 * d3 + d2 * d3 < d1 * d2 * d3  # 1/d1 + 1/d2 + 1/d3 < 1


def _coprime_numerators(d: int) -> Iterator[int]:
    return (a for a in range(1, d // 2 + 1) if gcd(a, d) == 1)


# per case: the interval (lo_num/lo_den, hi_num/hi_den) and the d whose a/d may equal a bound
_CASE_BOUNDS = {1: (1, 4, 1, 2, {2, 4}), 2: (1, 3, 1, 2, {2, 3}), 3: (1, 12, 4, 15, {12})}


def interval_coprime(d: int, case: int) -> Optional[int]:
    """Numerator coprime to d with a/d in the case's interval, or None.

    Case 1: 1/4 <= a/d <= 1/2 (equality only for d in {2,4}); fails only at
    d = 6.  Case 2: 1/3 <= a/d <= 1/2 (equality only for d in {2,3}); fails
    only at d in {4,6,10}.  Case 3: 1/12 < a/d < 4/15 (boundary allowed only
    at d = 12); fails only at d in {2,3,18}.  The returned value is the
    closed-form witness (d-1)/2, (d-4)/2 or (d-2)/2 by d mod 4 for cases 1
    and 2, and (d-b)/6 with b tabulated mod 36 for case 3, with the handful
    of small d handled directly; it need not be the least valid numerator.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if case not in _CASE_BOUNDS:
        raise ValueError("case must be 1, 2 or 3")
    if case in (1, 2):
        if d == 2 or (case == 2 and d == 3):
            a = 1
        else:
            a = _case12_formula(d)
    else:
        a = 1 if d == 6 else _case3_formula(d)
    if a is None or a < 1 or gcd(a, d) != 1:
        return None
    lo_num, lo_den, hi_num, hi_den, boundary_ds = _CASE_BOUNDS[case]
    above, below = a * lo_den - lo_num * d, hi_num * d - a * hi_den
    inside = min(above, below) > 0 or (min(above, below) == 0 and d in boundary_ds)
    return a if inside else None


def _case12_formula(d: int) -> int:
    if d % 2 == 1:
        return (d - 1) // 2
    if d % 4 == 2:
        return (d - 4) // 2
    return (d - 2) // 2


# case 3 offsets b keyed on (d mod 4 for even d, else "odd") and d mod 9
_CASE3_B = {
    (2, 3): -12, (2, 2): -4, (2, 5): -4, (2, 8): -4,
    (2, 1): 4, (2, 4): 4, (2, 7): 4, (2, 0): 12, (2, 6): 12,
    (0, 6): -6, (0, 1): -2, (0, 4): -2, (0, 7): -2,
    (0, 2): 2, (0, 5): 2, (0, 8): 2, (0, 0): 6, (0, 3): 6,
    (1, 3): -3, (1, 2): -1, (1, 5): -1, (1, 8): -1,
    (1, 1): 1, (1, 4): 1, (1, 7): 1, (1, 0): 3, (1, 6): 3,
}


def _case3_formula(d: int) -> Optional[int]:
    b = _CASE3_B[(d % 4 if d % 2 == 0 else 1, d % 9)]
    if (d - b) % 6 != 0:
        return None
    return (d - b) // 6


def scan_hyperbolic_triples(dmax: int) -> list[tuple[int, int, int]]:
    """All hyperbolic d1 <= d2 <= d3 <= dmax with no strict witness, sorted."""
    if dmax < 7:
        raise ValueError("dmax must be >= 7")
    if dmax > MAX_SCAN_DMAX:
        raise ValueError(f"dmax must be <= {MAX_SCAN_DMAX}")
    return sorted(
        (d1, d2, d3)
        for d3 in range(2, dmax + 1)
        for d2 in range(2, d3 + 1)
        for d1 in range(2, d2 + 1)
        if _is_hyperbolic(d1, d2, d3) and triangle_witness(d1, d2, d3, strict=True) is None
    )


def _index_two_parent(triple: tuple[int, int, int]) -> FuchsianPresentation:
    """Parent (2, 2a, b) realizing the (a, b, b) group as an index-2 subgroup."""
    x, y, z = triple
    if y == z:
        a, b = x, y
    elif x == y:
        a, b = z, x
    else:
        raise ValueError(f"{triple} has no repeated period")
    return FuchsianPresentation(0, (2, 2 * a, b))


def _reduction_step(periods: tuple[int, ...]) -> InductiveReduction:
    """Split the two largest periods off against a shared auxiliary period.

    The auxiliary period is the smallest d >= 7 making every split part that
    can be a hyperbolic triangle (pair other than (2,2)) witness-bearing.
    A (2,2,d) part is dihedral: order-faithful but never witness-bearing,
    which is fine since density then rides on the other part.
    """
    split_pair = periods[-2:]
    candidates = [split_pair, periods[:2]] if len(periods) == 4 else [split_pair]
    parts = [pair for pair in candidates if pair != (2, 2)]
    for aux in range(7, 1001):  # paper: any sufficiently large d works
        if all(triangle_witness(p, q, aux, strict=True) is not None for p, q in parts):
            break
    else:
        raise ArithmeticError(f"no auxiliary period found for {periods}")
    return InductiveReduction(
        retained=periods[:-2] + (aux,), split=split_pair + (aux,), auxiliary=aux
    )


def is_so3_dense(p: FuchsianPresentation) -> DensityVerdict:
    """Classify a signature, with the branch of the argument as the reason."""
    if p.genus >= 1:
        return DensityVerdict(GenusPositive())
    periods = p.periods
    if periods in EXCEPTIONAL_SIGNATURES:
        note = ""
        if periods == (3, 4, 4):
            w = triangle_witness(3, 4, 4, strict=True)
            note = (
                f"strict witness {w} exists but its rotations generate the "
                "finite octahedral group; the index-two parent (2,6,4) is "
                "itself in the exceptional set"
            )
        return DensityVerdict(ExceptionalSet(), note=note)
    if len(periods) == 3:
        if periods in _SHADOWED_TRIPLES:
            return DensityVerdict(IndexTwoRealization(_index_two_parent(periods)))
        witness = triangle_witness(*periods, strict=True)
        if witness is None:  # guaranteed off the exceptional set
            raise ArithmeticError(f"no strict witness for {periods} off the exceptional set")
        return DensityVerdict(TriangleWitness(witness))
    return DensityVerdict(_reduction_step(periods))
