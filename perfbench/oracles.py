"""Independent answers the benchmark checks repvar's outputs against.

Nothing here imports repvar.  Each check takes its own route: Euler
characteristics through one common denominator, Lie dimensions summed from a
separately transcribed exponent table, exterior-square fixed spaces by
counting eigenvalue pairs as rational residues, triangle witnesses and
interval numerators by plain integer scans with cross-multiplication, and
group orders through sympy.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

# the six signatures that are not SO(3)-dense
NOT_DENSE = frozenset(
    {(2, 4, 6), (2, 6, 6), (3, 4, 4), (3, 6, 6), (2, 6, 10), (4, 6, 12)}
)
# hyperbolic triples with no strict witness: the set above minus (3,4,4)
WITNESS_FAILURES = ((2, 4, 6), (2, 6, 6), (2, 6, 10), (3, 6, 6), (4, 6, 12))
# triples the verdict realizes as index-two subgroups
SHADOWED = ((2, 5, 5), (3, 3, 4), (3, 3, 5), (3, 4, 4), (3, 5, 5), (4, 4, 4), (5, 5, 5))
COLUMNS = ("A1", "E6", "E7", "E8", "F4", "G2")
TMINUSDIM_ROWS = ((2, 2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 3, 4))

_EXCEPTIONAL = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}


def exponents(label: str) -> tuple[int, ...]:
    """Exponents of the simple Lie algebra named like ``A1``, ``D7`` or ``E8``."""
    if label in _EXCEPTIONAL:
        return _EXCEPTIONAL[label]
    family, n = label[0], int(label[1:])
    if family == "A":
        return tuple(range(1, n + 1))
    if family in "BC":
        return tuple(2 * i + 1 for i in range(n))
    return tuple(sorted([2 * i + 1 for i in range(n - 1)] + [n - 1]))


def lie_dim(label: str) -> int:
    return sum(2 * e + 1 for e in exponents(label))


def lie_rank(label: str) -> int:
    return len(exponents(label))


def chi(genus: int, periods) -> Fraction:
    """2 - 2g - sum(1 - 1/d), over the common denominator lcm(periods)."""
    den = lcm(*periods) if periods else 1
    num = (2 - 2 * genus - len(periods)) * den + sum(den // d for d in periods)
    return Fraction(num, den)


def principal_fix(label: str, d: int) -> int:
    return sum(1 + 2 * (e // d) for e in exponents(label))


def z1_principal(genus: int, periods, label: str) -> int:
    dim = lie_dim(label)
    return (2 * genus - 1) * dim + sum(dim - principal_fix(label, d) for d in periods)


def balanced_type(n_points: int, d: int) -> tuple[int, ...]:
    """As many d-cycles as fit, one fewer if that keeps the permutation even."""
    q = n_points // d
    if d % 2 == 0 and q % 2 == 1:
        q -= 1
    return (d,) * q + (1,) * (n_points - q * d)


def ext_square_fix(cycle_type) -> int:
    """Fixed dimension on the exterior square of the standard representation.

    A c-cycle has eigenvalues exp(2 pi i k/c), k < c, on the permutation
    module; the standard module drops one eigenvalue 1.  Fixed vectors of
    the exterior square are unordered pairs of eigenvalues multiplying to 1.
    """
    residues = Counter(Fraction(k, c) for c in cycle_type for k in range(c))
    residues[Fraction(0)] -= 1
    total = 0
    for r, m in residues.items():
        s = (1 - r) % 1
        if r == s:
            total += m * (m - 1) // 2
        elif r < s:
            total += m * residues.get(s, 0)
    return total


def z1_alternating(genus: int, cycle_types, degree: int) -> int:
    dim = (degree - 1) * (degree - 2) // 2
    return (2 * genus - 1) * dim + sum(dim - ext_square_fix(t) for t in cycle_types)


def upper_bound(genus: int, periods, dim: int, rank: int) -> Fraction:
    m = len(periods)
    return (1 - chi(genus, periods)) * dim + (2 * genus + m + rank) + Fraction(3 * m * rank, 2)


def exceptional_inequality(genus: int, periods, label: str) -> bool:
    exps = list(exponents(label))
    exps.remove(1)
    total = (2 * genus - 2 + len(periods)) * (lie_dim(label) - 3)
    return total - sum(1 + 2 * (e // d) for d in periods for e in exps) > 0


def _triangle(a1, d1, a2, d2, a3, d3, strict: bool) -> bool:
    x1, x2, x3 = a1 * d2 * d3, a2 * d1 * d3, a3 * d1 * d2
    if strict:
        return x1 < x2 + x3 and x2 < x1 + x3 and x3 < x1 + x2
    return x1 <= x2 + x3 and x2 <= x1 + x3 and x3 <= x1 + x2


def witness_valid(triple, angles, strict: bool) -> bool:
    """Coprime numerators with 0 < a/d <= 1/2 forming a (strict) triangle."""
    if len(angles) != 3:
        return False
    for a, d in zip(angles, triple):
        if not (isinstance(a, int) and 1 <= a and 2 * a <= d and gcd(a, d) == 1):
            return False
    (d1, d2, d3), (a1, a2, a3) = triple, angles
    return _triangle(a1, d1, a2, d2, a3, d3, strict)


@lru_cache(maxsize=None)
def least_witness(d1: int, d2: int, d3: int, strict: bool):
    """Lexicographically least witness by direct integer scan, or None."""
    cands = [[a for a in range(1, d // 2 + 1) if gcd(a, d) == 1] for d in (d1, d2, d3)]
    for a1 in cands[0]:
        for a2 in cands[1]:
            for a3 in cands[2]:
                if _triangle(a1, d1, a2, d2, a3, d3, strict):
                    return (a1, a2, a3)
    return None


def in_case_interval(a: int, d: int, case: int) -> bool:
    """a/d inside the case's interval, endpoints only for the listed d."""
    lo_num, lo_den, hi_num, hi_den, ends = {
        1: (1, 4, 1, 2, (2, 4)),
        2: (1, 3, 1, 2, (2, 3)),
        3: (1, 12, 4, 15, (12,)),
    }[case]
    above, below = a * lo_den - lo_num * d, hi_num * d - a * hi_den
    if above > 0 and below > 0:
        return True
    return (above == 0 or below == 0) and above >= 0 and below >= 0 and d in ends


def least_interval_numerator(d: int, case: int):
    for a in range(1, d):
        if gcd(a, d) == 1 and in_case_interval(a, d, case):
            return a
    return None


def is_hyperbolic(genus: int, periods) -> bool:
    return chi(genus, periods) < 0


def perm_parity_odd(images) -> bool:
    """True for an odd permutation given by 1-based images."""
    seen, cycles = set(), 0
    for start in range(1, len(images) + 1):
        if start not in seen:
            cycles += 1
            p = start
            while p not in seen:
                seen.add(p)
                p = images[p - 1]
    return (len(images) - cycles) % 2 == 1


def cycle_type(images) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(1, len(images) + 1):
        if start not in seen:
            length, p = 0, start
            while p not in seen:
                seen.add(p)
                p = images[p - 1]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def compose(x, y):
    """x after y, on 1-based image tuples."""
    return tuple(x[q - 1] for q in y)


def alternating_order(n: int) -> int:
    return factorial(n) // 2


class GroupOrders:
    """Group orders from sympy, imported on first use and memoized."""

    def __init__(self):
        self._memo: dict[tuple, int] = {}

    def __call__(self, gens) -> int:
        key = tuple(tuple(g) for g in gens)
        if key not in self._memo:
            from sympy.combinatorics import Permutation, PermutationGroup

            group = PermutationGroup([Permutation([p - 1 for p in g]) for g in key])
            self._memo[key] = int(group.order())
        return self._memo[key]
