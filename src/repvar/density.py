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

from itertools import accumulate, combinations_with_replacement
from math import gcd
from typing import Iterator, Optional

from .presentation import BadPeriodError, FuchsianPresentation, Record

EXCEPTIONAL_SIGNATURES = frozenset(
    {(2, 4, 6), (2, 6, 6), (3, 4, 4), (3, 6, 6), (2, 6, 10), (4, 6, 12)}
)

MAX_SCAN_DMAX = 200  # the scan visits ~dmax^3/6 triples; 200 takes about 1 s on 2 vCPUs

# triples whose periods fit inside the octahedral or icosahedral groups
_SHADOWED_TRIPLES = frozenset(
    {(2, 5, 5), (3, 3, 4), (3, 3, 5), (3, 4, 4), (3, 5, 5), (4, 4, 4), (5, 5, 5)}
)


class GenusPositive(Record):
    pass


class ExceptionalSet(Record):
    pass


class TriangleWitness(Record):
    angles: tuple[int, int, int]


class InductiveReduction(Record):
    """One reduction step: split the two largest periods off with a shared
    auxiliary period, leaving a shorter tuple."""

    retained: tuple[int, ...]
    split: tuple[int, int, int]
    auxiliary: int


class IndexTwoRealization(Record):
    parent: FuchsianPresentation


class DensityVerdict(Record):
    """A classification: the branch of the argument, plus an optional diagnostic."""

    reason: (
        GenusPositive | ExceptionalSet | TriangleWitness | InductiveReduction | IndexTwoRealization
    )
    note: str = ""

    @property
    def dense(self) -> bool:
        return not isinstance(self.reason, ExceptionalSet)


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
    return _least_witness(d1, d2, d3, strict)


def _least_witness(d1: int, d2: int, d3: int, strict: bool) -> Optional[tuple[int, int, int]]:
    """``triangle_witness`` on periods already known to be valid."""
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
    first, last = _numerator_range(d, lo_num, lo_den, hi_num, hi_den, strict)
    return next((a for a in range(first, last + 1) if gcd(a, d) == 1), None)


def _numerator_range(
    d: int, lo_num: int, lo_den: int, hi_num: int, hi_den: int, strict: bool
) -> tuple[int, int]:
    """The a with lo < a/d < hi (<= if not strict), as (first, last) within [1, d // 2]."""
    # a * lo_den >= lo_num * d + strict and a * hi_den <= hi_num * d - strict (True is 1)
    first, last = -(-(lo_num * d + strict) // lo_den), (hi_num * d - strict) // hi_den
    half = d // 2  # conditionals, not max/min: the scan calls this once per triple
    return (first if first > 1 else 1), (last if last < half else half)


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
    at d = 12); fails only at d in {2,3,18}.

    Each case tries a few candidates in order of preference and returns the
    first that is coprime to d and inside the range.  Cases 1 and 2 return
    the greatest valid numerator: (d-1)/2 for odd d, d/2 - 1 for d = 0 mod 4
    and d/2 - 2 for d = 2 mod 4 are coprime to d, so it is the top of the
    range or one below.  Case 3 returns the valid numerator nearest to d/6,
    the lower one on a tie: since gcd(a, d) = gcd(a, d - 6a), some a with
    |d - 6a| <= 12 is coprime to d, and the five candidates include each such a.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if case not in _CASE_BOUNDS:
        raise ValueError("case must be 1, 2 or 3")
    lo_num, lo_den, hi_num, hi_den, boundary_ds = _CASE_BOUNDS[case]
    first, last = _numerator_range(d, lo_num, lo_den, hi_num, hi_den, d not in boundary_ds)
    if case in (1, 2):
        candidates = (last, last - 1)
    else:
        # d/6 rounded half down, then outward alternately from the side d/6
        # lies on (the lower side when d/6 is whole): nearest first, ties lower
        a0 = (d + 2) // 6
        s = 1 if 6 * a0 < d else -1
        candidates = (a0, a0 + s, a0 - s, a0 + 2 * s, a0 - 2 * s)
    for a in candidates:
        if first <= a <= last and gcd(a, d) == 1:
            return a
    return None


def scan_hyperbolic_triples(dmax: int) -> list[tuple[int, int, int]]:
    """All hyperbolic d1 <= d2 <= d3 <= dmax with no strict witness, sorted."""
    if dmax < 7:
        raise ValueError("dmax must be >= 7")
    if dmax > MAX_SCAN_DMAX:
        raise ValueError(f"dmax must be <= {MAX_SCAN_DMAX}")
    failures = []
    for d3 in range(2, dmax + 1):
        # prev[a]: the greatest numerator <= a coprime to d3, or 0 (gcd(0, d3) = d3)
        prev = list(accumulate(range(d3), lambda p, a: a if gcd(a, d3) == 1 else p))
        for d1, d2 in combinations_with_replacement(range(2, d3 + 1), 2):
            # one lookup settles the (1, 1) witness that most triples have
            first, last = _numerator_range(d3, d2 - d1, d1 * d2, d1 + d2, d1 * d2, True)
            if prev[last] < first and _is_hyperbolic(d1, d2, d3):
                if _least_witness(d1, d2, d3, True) is None:
                    failures.append((d1, d2, d3))
    return sorted(failures)


def _index_two_parent(triple: tuple[int, int, int]) -> FuchsianPresentation:
    """Parent (2, 2a, b) realizing the (a, b, b) group as an index-2 subgroup."""
    x, y, z = triple
    a, b = (x, y) if y == z else (z, x)
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
        # a witness exists or not whatever the order of the periods, and the
        # search is cheap when the first two are small
        if all(_least_witness(*sorted((p, q, aux)), True) is not None for p, q in parts):
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
            w = _least_witness(3, 4, 4, True)
            note = (
                f"strict witness {w} exists but its rotations generate the "
                "finite octahedral group; the index-two parent (2,6,4) is "
                "itself in the exceptional set"
            )
        return DensityVerdict(ExceptionalSet(), note=note)
    if len(periods) == 3:
        if periods in _SHADOWED_TRIPLES:
            return DensityVerdict(IndexTwoRealization(_index_two_parent(periods)))
        witness = _least_witness(*periods, True)
        if witness is None:  # guaranteed off the exceptional set
            raise ArithmeticError(f"no strict witness for {periods} off the exceptional set")
        return DensityVerdict(TriangleWitness(witness))
    return DensityVerdict(_reduction_step(periods))
