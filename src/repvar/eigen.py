"""Eigenvalue multiplicity bookkeeping for finite-order linear elements.

Eigenvalues of an order-d element are represented by residue indices mod d
(index j standing for exp(2*pi*i*j/d)), never by floating-point complex
numbers; every fixed-space dimension below is integer combinatorics on these
residue vectors.

Three element families are covered: images of torsion generators under a
principal homomorphism (acting on the adjoint representation), permutations
acting on the standard representation of the symmetric group, and arbitrary
profiles inside SU(n).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm

from .liedata import RootSystem, exponents


class DegreeMismatchError(ValueError):
    """Permutations of different degrees were combined."""


@dataclass(frozen=True)
class EigenProfile:
    """Multiplicity vector of d-th-root-of-unity eigenvalues.

    ``multiplicities[j]`` is the multiplicity of exp(2*pi*i*j/d), one entry
    per residue mod the order d; the ambient dimension is the total.
    ``real`` flags a self-dual spectrum (m_j = m_{d-j mod d}), which holds
    for orthogonal and adjoint actions.
    """

    multiplicities: tuple[int, ...]
    real: bool = False

    def __post_init__(self) -> None:
        if not self.multiplicities:
            raise ValueError("need at least one multiplicity")
        if any(m < 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be non-negative")
        if self.real:
            d, m = self.order, self.multiplicities
            if any(m[j] != m[(d - j) % d] for j in range(d)):
                raise ValueError("profile flagged real but spectrum is not self-dual")

    @property
    def order(self) -> int:
        return len(self.multiplicities)

    @property
    def dim(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``images[i]`` is the image of point i+1."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("images do not form a bijection of {1..n}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

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
        return cycles_text(self)


def perm_from_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation, e.g. ``(1 2)(3 4)``; whitespace-tolerant.

    Points not mentioned are fixed, so the degree must be declared.  ``()``
    or an empty string is the identity.
    """
    stripped = text.strip()
    if not re.fullmatch(r"(\s*\(\s*(\d+[\s,]*)*\))*\s*", stripped):
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


def cycles_text(x: Permutation) -> str:
    """Disjoint-cycle rendering; the identity renders as ``()``."""
    cycs = x.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)


def perm_order(x: Permutation) -> int:
    """Order = lcm of the cycle lengths."""
    return lcm(*x.cycle_type()) if x.degree else 1


def perm_parity(x: Permutation) -> str:
    """``"even"`` or ``"odd"``: the parity of degree minus number of cycles."""
    return "even" if (x.degree - len(x.cycle_type())) % 2 == 0 else "odd"


def perm_compose(x: Permutation, y: Permutation) -> Permutation:
    """Function composition applying x after y: (x*y)(p) = x(y(p))."""
    if x.degree != y.degree:
        raise DegreeMismatchError(f"degrees {x.degree} and {y.degree} differ")
    return Permutation(tuple(x.images[q - 1] for q in y.images))


def cycle_type_std_eigenprofile(lengths: tuple[int, ...] | list[int]) -> EigenProfile:
    """Standard-representation profile of a permutation with given cycle type.

    The permutation representation of a cycle of length c contributes, as an
    order-d element (d = lcm of all lengths), one eigenvalue at each residue
    j*(d/c) mod d; the standard representation drops one trivial summand, so
    m_0 is decremented and the dimension is (degree - 1).
    """
    lengths = tuple(lengths)
    if not lengths or any(c < 1 for c in lengths):
        raise ValueError("cycle type must be a non-empty list of positive lengths")
    d = lcm(*lengths)
    mult = [0] * d
    for c in lengths:
        step = d // c
        for j in range(c):
            mult[(j * step) % d] += 1
    mult[0] -= 1
    return EigenProfile(tuple(mult), real=True)


def perm_std_eigenprofile(x: Permutation) -> EigenProfile:
    """Eigenvalue profile of x on the standard (degree - 1)-dim representation."""
    return cycle_type_std_eigenprofile(x.cycle_type())


def exterior_square_fixed_dim(p: EigenProfile) -> int:
    """Multiplicity of eigenvalue 1 on the exterior square of V.

    A pair of eigenvalue residues (j, l) contributes residue j + l mod d, so
    the fixed multiplicity is the number of unordered pairs summing to 0:
    C(m_0, 2) + C(m_{d/2}, 2) for even d, plus m_j * m_{d-j} over 0 < j < d/2.
    """
    d, m = p.order, p.multiplicities
    total = m[0] * (m[0] - 1) // 2
    if d % 2 == 0:
        total += m[d // 2] * (m[d // 2] - 1) // 2
    for j in range(1, (d + 1) // 2):
        total += m[j] * m[d - j]
    return total


def su_centralizer_dim(p: EigenProfile) -> int:
    """Fixed dimension of Ad on su(n) for an element with profile p.

    dim Z(x) + 1 = sum of squared multiplicities inside U(n); subtracting the
    central line gives the centralizer dimension in SU(n).
    """
    if p.dim < 2:
        raise ValueError("profile must have ambient dimension >= 2")
    return sum(m * m for m in p.multiplicities) - 1


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


def principal_eigenprofile(rs: RootSystem, d: int) -> EigenProfile:
    """Order-d adjoint profile of a principal torsion image.

    Each exponent e contributes the residues of -e, -e+1, ..., e mod d (the
    2d-th root lift squares to a primitive d-th root, so adjoint eigenvalue
    exponents are even and halve cleanly).  The profile is real, and m_0
    equals ``principal_fixed_dim``.
    """
    if d < 2:
        raise ValueError("order must be >= 2")
    mult = [0] * d
    for e in exponents(rs):
        for k in range(-e, e + 1):
            mult[k % d] += 1
    return EigenProfile(tuple(mult), real=True)


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
    q = n_points // d
    if d % 2 == 0 and q % 2 == 1:
        q -= 1
    if q == 0:
        raise ValueError(
            f"cannot build an even permutation of order {d} on {n_points} points"
        )
    return tuple([d] * q + [1] * (n_points - q * d))
