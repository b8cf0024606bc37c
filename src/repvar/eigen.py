"""Fixed-space dimensions of finite-order elements, as integer combinatorics.

Two element families are covered.  An image of a torsion generator under a
principal homomorphism, acting on the adjoint representation, enters as a
root system and an order, and its fixed dimension is read off the exponents.
A permutation, acting on the exterior square of the standard representation
of the symmetric group, enters as its cycle type, and its fixed dimension is
an orbit count bounded by the degree.
"""

from __future__ import annotations

import re
from collections import Counter
from math import gcd, lcm

from .liedata import RootSystem, exponents
from .presentation import INT_TOKEN, Record


MAX_DEGREE = 10**6  # a permutation lists its images; z1 alternating at 10^6: 0.3 s on 2 vCPUs


class DegreeMismatchError(ValueError):
    """Permutations of different degrees were combined."""


class Permutation(Record):
    """A bijection of {1..n}; ``images[i]`` is the image of point i+1."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("images do not form a bijection of {1..n}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(1, self.degree + 1):
            if seen[i - 1] or self.images[i - 1] == i:
                continue
            cyc = [i]
            seen[i - 1] = True
            j = self.images[i - 1]
            while j != i:
                cyc.append(j)
                seen[j - 1] = True
                j = self.images[j - 1]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """All cycle lengths including fixed points, sorted descending."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def __str__(self) -> str:
        """Disjoint-cycle rendering; the identity renders as ``()``."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)


def perm_from_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation, e.g. ``(1 2)(3 4)``; whitespace-tolerant.

    Points not mentioned are fixed, so the degree must be declared.  ``()``
    or an empty string is the identity.  Each point is an ``INT_TOKEN``.
    """
    if degree > MAX_DEGREE:
        raise ValueError(f"degree must be <= {MAX_DEGREE}")
    stripped = text.strip()
    point = f"(?:{INT_TOKEN.pattern})"  # a separator ends each, so a digit run has one parse
    if not re.fullmatch(rf"(?:\s*\(\s*(?:{point}(?:[\s,]+{point})*[\s,]*)?\))*\s*", stripped):
        raise ValueError(f"cannot parse cycle notation {text!r}")
    images = list(range(1, degree + 1))
    touched: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", stripped):
        points = [int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok]
        if not points:
            continue
        for p in points:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} outside 1..{degree}")
            if p in touched:
                raise ValueError(f"point {p} repeated; cycles must be disjoint")
            touched.add(p)
        for a, b in zip(points, points[1:]):
            images[a - 1] = b
        images[points[-1] - 1] = points[0]
    return Permutation(tuple(images))


def perm_order(x: Permutation) -> int:
    """Order = lcm of the cycle lengths."""
    return lcm(*x.cycle_type())


def perm_parity(x: Permutation) -> str:
    """``"even"`` or ``"odd"``: the parity of degree minus number of cycles."""
    return "even" if (x.degree - len(x.cycle_type())) % 2 == 0 else "odd"


def perm_compose(x: Permutation, y: Permutation) -> Permutation:
    """Function composition applying x after y: (x*y)(p) = x(y(p))."""
    if x.degree != y.degree:
        raise DegreeMismatchError(f"degrees {x.degree} and {y.degree} differ")
    return Permutation(tuple(x.images[q - 1] for q in y.images))


def exterior_square_fixed_dim(lengths: tuple[int, ...] | list[int]) -> int:
    """Fixed dimension on the exterior square of V, for cycle type ``lengths``
    (fixed points as 1s): on that of 1 + V, each <x>-orbit of e_i ^ e_j gives a
    fixed line unless a power of x swaps i and j; a c-cycle holds (c - 1)//2
    such orbits and two cycles of lengths a, b hold gcd(a, b).  As the square of
    1 + V is V plus that of V, dim V^x = #cycles - 1 is then taken off.
    """
    counts = Counter(lengths)
    if not counts or min(counts) < 1:
        raise ValueError("cycle type must be a non-empty list of positive lengths")
    total = 1 - sum(counts.values())
    for a, n_a in counts.items():  # one term per distinct length or pair of them
        total += n_a * ((a - 1) // 2) + n_a * (n_a - 1) // 2 * a
        total += sum(n_a * n_b * gcd(a, b) for b, n_b in counts.items() if b < a)
    return total


def principal_fixed_dim(rs: RootSystem, d: int) -> int:
    """Adjoint fixed-space dimension of an order-d principal torsion image.

    The adjoint representation restricted through a principal homomorphism
    splits as a sum of odd-dimensional pieces with eigenvalue exponents
    -2e_i, 2-2e_i, ..., 2e_i of a primitive 2d-th root, so the eigenvalue 1
    appears sum_i (1 + 2*floor(e_i/d)) times.  d = 1 returns dim G.
    """
    if d < 1:
        raise ValueError("order must be >= 1")
    return sum(1 + 2 * (e // d) for e in exponents(rs))


def balanced_class(n_points: int, d: int) -> tuple[int, ...]:
    """Cycle type of the balanced order-d class in the alternating group.

    As many d-cycles as fit in n_points, dropping one if needed to keep the
    permutation even (a d-cycle is odd exactly when d is even); the rest are
    fixed points, at most 2d - 1 of them.  Raises when no even permutation
    of order d exists on n_points.
    """
    if d < 2:
        raise ValueError("cycle length must be >= 2")
    if n_points < d:
        raise ValueError(f"no {d}-cycle fits in {n_points} points")
    if n_points > MAX_DEGREE:
        raise ValueError(f"degree must be <= {MAX_DEGREE}")
    q = n_points // d
    if d % 2 == 0 and q % 2 == 1:
        q -= 1
    if q == 0:
        raise ValueError(
            f"cannot build an even permutation of order {d} on {n_points} points"
        )
    return tuple([d] * q + [1] * (n_points - q * d))
