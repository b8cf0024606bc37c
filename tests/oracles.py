"""Independent oracles the test suite checks the library against.

Each oracle deliberately takes a different computational route from the
implementation it cross-checks: fixed spaces on the exterior square go
through the character average, and through eigenvalue pairs of the standard
profile, rather than orbits of 2-subsets, group orders go
through brute-force product closure or sympy's permutation groups rather
than repvar's stabilizer chain, interval representatives go through a
smallest-numerator scan and through closed forms in d mod 4 and d mod 36,
both checked with pure integer inequalities, rather than candidates filtered
by repvar's numerator range, triangle witnesses go through a plain triple loop rather than one interval
query per numerator pair, Lie algebra dimensions go through the
per-family closed forms rather than the exponents, and the Euler
characteristic goes through one fraction over the lcm of the periods rather
than a fraction per period.

The permutation helpers at the top (identity, inverse, power, a canonical
permutation of a cycle type) are used only by tests and the oracles.  The
two multiplicity builders give eigenvalue profiles as plain tuples, one entry
per residue mod the order; acceptance 8 checks the paper's SU(n) centralizer
bound on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from repvar.eigen import Permutation, perm_compose, perm_order
from repvar.liedata import RootSystem, exponents


def lcm_euler_characteristic(genus: int, periods) -> Fraction:
    """chi = ((2 - 2g - m) L + sum_i L/d_i) / L with L the lcm of the periods,
    so the only reduction is the one the final ``Fraction`` makes."""
    periods = tuple(periods)
    common = lcm(*periods)  # 1 for no periods
    return Fraction((2 - 2 * genus - len(periods)) * common + sum(common // d for d in periods), common)


def identity_perm(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def perm_inverse(x: Permutation) -> Permutation:
    inv = [0] * x.degree
    for i, v in enumerate(x.images):
        inv[v - 1] = i + 1
    return Permutation(tuple(inv))


def perm_power(x: Permutation, k: int) -> Permutation:
    if k < 0:
        return perm_power(perm_inverse(x), -k)
    result = identity_perm(x.degree)
    square = x
    while k:
        if k & 1:
            result = perm_compose(square, result)
        square = perm_compose(square, square)
        k >>= 1
    return result


def class_to_permutation(lengths: tuple[int, ...] | list[int]) -> Permutation:
    """Canonical permutation with the given cycle type, on consecutive points."""
    images = []
    start = 1
    for c in lengths:
        images.extend(list(range(start + 1, start + c)) + [start])
        start += c
    return Permutation(tuple(images))


def fixed_points(x: Permutation) -> int:
    return sum(1 for p in range(1, x.degree + 1) if x.images[p - 1] == p)


def ext_square_fixed_oracle(x: Permutation) -> int:
    """Character average (1/d) sum_k (chi(x^k)^2 - chi(x^{2k})) / 2.

    chi is the standard-representation character, fixed points minus one;
    the average is the multiplicity of the trivial character in the exterior
    square and must come out an integer.
    """
    d = perm_order(x)
    total = Fraction(0)
    for k in range(d):
        c1 = fixed_points(perm_power(x, k)) - 1
        c2 = fixed_points(perm_power(x, 2 * k)) - 1
        total += Fraction(c1 * c1 - c2, 2)
    value = total / d
    if value.denominator != 1:
        raise ArithmeticError(f"character average {value} is not an integer")
    return int(value)


def std_multiplicities(lengths: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Standard-representation eigenvalue multiplicities of a cycle type.

    Entry j counts exp(2*pi*i*j/d), d the lcm of the lengths: a c-cycle
    gives one eigenvalue at each residue j*(d/c), and the standard
    representation drops one trivial summand from entry 0.
    """
    d = lcm(*lengths)
    m = [0] * d
    for c in lengths:
        for j in range(c):
            m[j * (d // c)] += 1
    m[0] -= 1
    return tuple(m)


def principal_multiplicities(rs: RootSystem, d: int) -> tuple[int, ...]:
    """Adjoint eigenvalue multiplicities of an order-d principal torsion image:
    each exponent e gives the residues of -e, -e+1, ..., e mod d."""
    m = [0] * d
    for e in exponents(rs):
        for k in range(-e, e + 1):
            m[k % d] += 1
    return tuple(m)


def ext_square_profile_oracle(lengths: tuple[int, ...] | list[int]) -> int:
    """Unordered pairs of standard-profile eigenvalues whose residues sum to 0
    mod the order d: C(m_0, 2) and C(m_{d/2}, 2), plus m_j * m_{d-j} for
    0 < j < d/2.  The profile has one entry per residue, so this costs the
    order, not the degree."""
    m = std_multiplicities(lengths)
    d = len(m)
    return sum(
        m[j] * (m[j] - 1) // 2 if 2 * j % d == 0 else m[j] * m[d - j]
        for j in range(d // 2 + 1)
    )


def closure_order(gens: list[Permutation]) -> int:
    """Order of the generated group by breadth-first product closure."""
    if not gens:
        return 1
    ident = Permutation(tuple(range(1, gens[0].degree + 1)))
    seen = {ident.images}
    frontier = [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = perm_compose(g, x)
                if y.images not in seen:
                    seen.add(y.images)
                    fresh.append(y)
        frontier = fresh
    return len(seen)


def sympy_group(gens: list[Permutation], queries: list[Permutation]) -> tuple[int, list[bool]]:
    """Order of the generated group and membership of each query, by sympy.

    sympy is imported here so that it stays a test-only dependency.
    """
    from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

    def convert(x: Permutation) -> SymPerm:
        return SymPerm([p - 1 for p in x.images])

    group = PermutationGroup([convert(g) for g in gens])
    return int(group.order()), [bool(group.contains(convert(q))) for q in queries]


def _in_case_interval(a: int, d: int, case: int) -> bool:
    """Interval membership with integer cross-multiplication only.

    Case 1 is d <= 4a and 2a <= d, case 2 is d <= 3a and 2a <= d, case 3 is
    d < 12a and 15a < 4d, with the boundary cases allowed exactly for
    d in {2,4} / {2,3} / {12}.
    """
    if case == 1:
        inside = d < 4 * a and 2 * a < d
        boundary = (d == 4 * a or 2 * a == d) and d in (2, 4)
    elif case == 2:
        inside = d < 3 * a and 2 * a < d
        boundary = (d == 3 * a or 2 * a == d) and d in (2, 3)
    else:
        inside = d < 12 * a and 15 * a < 4 * d
        boundary = (d == 12 * a or 15 * a == 4 * d) and d == 12
    return inside or boundary


def smallest_interval_numerator(d: int, case: int) -> int | None:
    """Least coprime numerator in the case interval, by direct scan."""
    return next(
        (a for a in range(1, d + 1) if gcd(a, d) == 1 and _in_case_interval(a, d, case)), None
    )


# case 3 offsets b keyed on (d mod 4 for even d, else "odd") and d mod 9
_CASE3_B = {
    (2, 3): -12, (2, 2): -4, (2, 5): -4, (2, 8): -4,
    (2, 1): 4, (2, 4): 4, (2, 7): 4, (2, 0): 12, (2, 6): 12,
    (0, 6): -6, (0, 1): -2, (0, 4): -2, (0, 7): -2,
    (0, 2): 2, (0, 5): 2, (0, 8): 2, (0, 0): 6, (0, 3): 6,
    (1, 3): -3, (1, 2): -1, (1, 5): -1, (1, 8): -1,
    (1, 1): 1, (1, 4): 1, (1, 7): 1, (1, 0): 3, (1, 6): 3,
}


def closed_form_interval_numerator(d: int, case: int) -> int | None:
    """Interval representative by closed forms, kept only if it is valid.

    Cases 1 and 2 take (d-1)/2, (d-4)/2 or (d-2)/2 by d mod 4; case 3 takes
    (d-b)/6 with the offset b tabulated on d mod 4 (even d) and d mod 9.
    d = 2 (cases 1, 2), d = 3 (case 2) and d = 6 (case 3) take 1 directly.
    """
    if case in (1, 2):
        if d == 2 or (case == 2 and d == 3):
            a = 1
        elif d % 2 == 1:
            a = (d - 1) // 2
        elif d % 4 == 2:
            a = (d - 4) // 2
        else:
            a = (d - 2) // 2
    elif d == 6:
        a = 1
    else:
        b = _CASE3_B[(d % 4 if d % 2 == 0 else 1, d % 9)]
        a = (d - b) // 6 if (d - b) % 6 == 0 else None
    return a if a is not None and gcd(a, d) == 1 and _in_case_interval(a, d, case) else None


def least_triangle_witness(d1: int, d2: int, d3: int, strict: bool) -> tuple[int, int, int] | None:
    """Lexicographically least coprime (a1, a2, a3) with 0 < a_i <= d_i/2
    whose fractions a_i/d_i satisfy the triangle inequality, by triple loop.

    Each fraction is scaled to the common denominator d1*d2*d3, so the three
    inequalities are compared as integers; equality is allowed when not
    strict.
    """
    common = d1 * d2 * d3
    numerators = [[a for a in range(1, d // 2 + 1) if gcd(a, d) == 1] for d in (d1, d2, d3)]
    for a1 in numerators[0]:
        for a2 in numerators[1]:
            for a3 in numerators[2]:
                s1, s2, s3 = a1 * (common // d1), a2 * (common // d2), a3 * (common // d3)
                slacks = (s2 + s3 - s1, s1 + s3 - s2, s1 + s2 - s3)
                if all(t > 0 if strict else t >= 0 for t in slacks):
                    return (a1, a2, a3)
    return None


_EXCEPTIONAL_DIMENSIONS = {"E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14}


def lie_dimension(family: str, n: int) -> int:
    """dim G by the closed form per family: n^2 + 2n for A_n, 2n^2 + n for
    B_n and C_n, 2n^2 - n for D_n; the exceptional dimensions are tabulated."""
    if family == "A":
        return n * n + 2 * n
    if family in ("B", "C"):
        return 2 * n * n + n
    if family == "D":
        return 2 * n * n - n
    return _EXCEPTIONAL_DIMENSIONS[f"{family}{n}"]


def partitions(n: int):
    """Yield all partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    stack = [(n, n, ())]
    while stack:
        remaining, cap, prefix = stack.pop()
        if remaining == 0:
            yield prefix
            continue
        for part in range(min(remaining, cap), 0, -1):
            stack.append((remaining - part, part, prefix + (part,)))
