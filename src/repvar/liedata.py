"""Static data for simple root systems and the compact classical groups.

Exponents are generated from the classical closed forms per family rather
than derived from root-system combinatorics; the identity

    dim G = sum_i (2 e_i + 1)

is checked for every constructed instance and is the guard against
transcription errors.  D_3 is accepted as an alias for A_3.
"""

from __future__ import annotations

from dataclasses import dataclass
import re

EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}

_EXCEPTIONAL_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass(frozen=True)
class RootSystem:
    """A simple root system: classical family letter + rank, or E6..G2."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family in EXCEPTIONAL_RANK:
            if self.rank != EXCEPTIONAL_RANK[self.family]:
                raise ValueError(f"{self.family} has rank {EXCEPTIONAL_RANK[self.family]}")
        elif self.family in _MIN_RANK:
            if self.rank < _MIN_RANK[self.family]:
                raise ValueError(f"{self.family}_n needs rank >= {_MIN_RANK[self.family]}")
        else:
            raise ValueError(f"unknown family {self.family!r}")
        # transcription guard: dim G = sum(2e + 1)
        if dimension(self) != sum(2 * e + 1 for e in exponents(self)):
            raise ArithmeticError(f"{self}: dim G != sum(2e + 1) over the exponents")
        if len(exponents(self)) != self.rank:
            raise ArithmeticError(f"{self}: exponent count != rank")

    def label(self) -> str:
        return self.family if self.family in EXCEPTIONAL_RANK else f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.label()


def exponents(rs: RootSystem) -> tuple[int, ...]:
    """Exponent multiset of the simple Lie algebra, sorted ascending.

    A_n: 1..n; B_n and C_n: 1, 3, ..., 2n-1; D_n: 1, 3, ..., 2n-3 together
    with n-1; exceptional families are tabulated.
    """
    f, n = rs.family, rs.rank
    if f == "A":
        return tuple(range(1, n + 1))
    if f in ("B", "C"):
        return tuple(range(1, 2 * n, 2))
    if f == "D":
        return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    return _EXCEPTIONAL_EXPONENTS[f]


def dimension(rs: RootSystem) -> int:
    """Dimension of the simple Lie algebra (closed form per family)."""
    f, n = rs.family, rs.rank
    if f == "A":
        return n * n + 2 * n
    if f in ("B", "C"):
        return 2 * n * n + n
    if f == "D":
        return 2 * n * n - n
    return {"E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14}[f]


@dataclass(frozen=True)
class ClassicalGroup:
    """A compact classical group SO(n) or SU(n), n >= 2."""

    kind: str  # "SO" or "SU"
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("SO", "SU"):
            raise ValueError(f"kind must be 'SO' or 'SU', got {self.kind!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    def __str__(self) -> str:
        return f"{self.kind}({self.n})"


def so_dim(n: int) -> int:
    """dim SO(n) = n(n-1)/2, total on every integer so broken input still reports."""
    return n * (n - 1) // 2


def classical_dim(g: ClassicalGroup) -> int:
    """dim SO(n) = n(n-1)/2, dim SU(n) = n^2 - 1."""
    if g.kind == "SO":
        return so_dim(g.n)
    return g.n * g.n - 1


def classical_rank(g: ClassicalGroup) -> int:
    """Rank of the compact group: floor(n/2) for SO(n), n-1 for SU(n)."""
    if g.kind == "SO":
        return g.n // 2
    return g.n - 1


_RS_RE = re.compile(r"^([ABCD])(\d+)$|^(E6|E7|E8|F4|G2)$")
_CG_RE = re.compile(r"^(SO|SU)\((\d+)\)$")


def parse_root_system(text: str) -> RootSystem:
    """Parse CLI syntax like ``A5``, ``B12``, ``E8``."""
    m = _RS_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse root system {text!r}")
    if m.group(3):
        return RootSystem(m.group(3), EXCEPTIONAL_RANK[m.group(3)])
    return RootSystem(m.group(1), int(m.group(2)))


def parse_classical_group(text: str) -> ClassicalGroup:
    """Parse CLI syntax like ``SO(13)`` or ``SU(7)``."""
    m = _CG_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse classical group {text!r}")
    return ClassicalGroup(m.group(1), int(m.group(2)))
