"""Static data for simple root systems and the compact classical groups.

Every root system is family letter + rank, for all nine families, as the
paper writes them: A5, B12, E8, G2.  Exponents are generated from the
classical closed forms per family rather than derived from root-system
combinatorics, and they define the dimension:

    dim G = sum_i (2 e_i + 1)

The tests hold the per-family closed forms for dim G, as the independent
check on the exponent tables.  D_3 is accepted as an alias for A_3.
"""

from __future__ import annotations

import re

from .presentation import INT_TOKEN, Record

# the exceptional systems, the only valid (letter, rank) pairs of E, F and G
_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

MAX_RANK = 10**6  # exponents lists rank entries; z1 principal at 10^6: 1 s on 2 vCPUs


class RootSystem(Record):
    """A simple root system: family letter + rank for all nine families."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family in _MIN_RANK:
            if self.rank < _MIN_RANK[self.family]:
                raise ValueError(f"{self.family}_n needs rank >= {_MIN_RANK[self.family]}")
            if self.rank > MAX_RANK:
                raise ValueError(f"rank must be <= {MAX_RANK}")
        elif (self.family, self.rank) not in _EXCEPTIONAL_EXPONENTS:
            raise ValueError(f"no simple root system {self.family}{self.rank}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


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
    return _EXCEPTIONAL_EXPONENTS[f, n]


def dimension(rs: RootSystem) -> int:
    """Dimension of the simple Lie algebra: sum_i (2 e_i + 1) over the exponents."""
    return sum(2 * e + 1 for e in exponents(rs))


def so_dim(n: int) -> int:
    """dim SO(n) = n(n-1)/2, total on every integer so broken input still reports."""
    return n * (n - 1) // 2


# a classical letter takes any integer token; E, F and G only their own ranks
_RS_RE = re.compile(rf"([ABCD]|E(?=[678]$)|F(?=4$)|G(?=2$))({INT_TOKEN.pattern})")
_CG_RE = re.compile(rf"(SO|SU)\(({INT_TOKEN.pattern})\)")


def parse_root_system(text: str) -> RootSystem:
    """Parse CLI syntax like ``A5``, ``B12``, ``E8``."""
    m = _RS_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"cannot parse root system {text!r}")
    return RootSystem(m.group(1), int(m.group(2)))


def group_dim_rank(text: str) -> tuple[int, int]:
    """(dim, rank) of a group token: ``SO(13)``, ``SU(7)`` or a root system.

    A token starting with S names SO(n) or SU(n), n >= 2, whose closed forms
    take any n: dim n(n-1)/2 and rank floor(n/2) for SO(n), dim n^2 - 1 and
    rank n - 1 for SU(n).  Anything else is parsed as a root system.
    """
    token = text.strip()
    if not token.startswith("S"):
        rs = parse_root_system(text)
        return dimension(rs), rs.rank
    m = _CG_RE.fullmatch(token)
    if m is None:
        raise ValueError(f"cannot parse classical group {text!r}")
    n = int(m.group(2))
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if m.group(1) == "SO":
        return so_dim(n), n // 2
    return n * n - 1, n - 1
