"""Deterministic permutation-group engine and the shipped generating triples.

The engine is an incremental Schreier-Sims stabilizer chain that keeps S^(i)
as one list per level.  Every strong generator, seed or residue, joins S^(0)
to S^(i) for the first base point base[i] it moves (a new one, its least
moved point, if it fixes the base); orbits grow in place, and each Schreier
generator is sifted until it sifts to the identity once.  No randomization
anywhere, so certification runs are reproducible bit for bit.  Orders are
exact arbitrary-precision integers; the degrees used by the shipped data
(12 and 14) are nowhere near any internal limit.

``Permutation`` (1-based, validated) is the type at the boundary: chains are
built from, test, and report ``Permutation``s.  Inside, the chain works on
bare 0-based image tuples, composed with ``tuple(map(x.__getitem__, y))``,
and stores each coset representative with its inverse, so the inner loops
never allocate or validate a ``Permutation``.

Construction stops as soon as the basic-orbit lengths multiply to the parity
ceiling (n!/2 for even generators, n! otherwise); see ``StabilizerChain``
for why that is exact.  Generating sets of A_n and S_n, the shipped triples
among them, stop there; smaller groups close by the full test.

``APPENDIX_ENTRIES`` holds the six triples of even permutations, one per
non-SO(3)-dense signature, parsed from their printed cycle notation.  The
product convention is function composition: x1*x2*x3 applies x3 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from typing import Sequence

from .cocycle import z1_dim_alternating_so
from .eigen import (
    DegreeMismatchError,
    Permutation,
    cycles_text,
    perm_compose,
    perm_from_cycles,
    perm_order,
    perm_parity,
)
from .liedata import so_dim
from .presentation import FuchsianPresentation

_Images = tuple[int, ...]  # 0-based: images[i] is the image of point i


class StabilizerChain:
    """Stabilizer chain (base and strong generating set) of ``<gens>``.

    The public view is 1-based and validated: ``base`` lists the stabilized
    points, ``transversals[i]`` maps each point of the i-th basic orbit to a
    coset representative u with u(base[i]) = point, ``level_generators``
    returns ``Permutation``s, and ``contains`` takes one.  The group order is
    the product of the basic-orbit lengths.

    Inside, every permutation is a bare 0-based image tuple, and each
    transversal entry holds a representative together with its inverse, so
    sifting and Schreier generators u_q^-1 * s * u_p compose tuples and never
    invert or validate.

    Construction is incremental Schreier-Sims (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, 4.4).  S^(i), the strong
    generators fixing the first i base points, is one list per level, and
    seeds and residues enter by one rule: a generator whose first moved base
    point is base[i] is appended to S^(0), ..., S^(i); one that fixes the
    whole base first appends its least moved point.  Lists, orbits and the
    base only grow, and transversal entries are never replaced, so a sift
    takes the same path every time: the Schreier generators at a point that
    sifted to the identity once, a prefix of S^(i), still do and are never
    sifted again.  A residue found at level i lies in <S^(i)>, so only the
    deeper levels it joins are extended.  Once every Schreier generator
    sifts to the identity, Schreier's lemma makes <S^(i+1)> the stabilizer
    of base[i] in <S^(i)> at every level, and the chain is complete.

    Construction stops early once the orbit lengths multiply to the parity
    ceiling: n!/2 when every generator is even, n! otherwise.  That is sound
    because each basic orbit is built from generators of a subgroup of the
    true stabilizer, so the product only ever undercounts |G|, and |G| is at
    most the ceiling.  Reaching it forces every basic orbit to be complete
    and the base's pointwise stabilizer to be trivial, so the chain is a
    valid BSGS and ``order`` and ``contains`` are exact.  Chains are
    immutable once built and safe to share.
    """

    def __init__(self, gens: Sequence[Permutation]):
        if not gens:
            raise ValueError("need at least one generator")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise DegreeMismatchError("generators must share a degree")
        self.degree = degree
        self._identity = tuple(range(degree))
        odd = any(perm_parity(g) == "odd" for g in gens)
        self._ceiling = factorial(degree) // (1 if odd else 2)
        self._base: list[int] = []
        # per level: point -> (u, u^-1) with u(base point) = point
        self._trans: list[dict[int, tuple[_Images, _Images]]] = []
        # per level i: S^(i) as (s, s^-1) pairs, in the order they were added
        self._gens: list[list[tuple[_Images, _Images]]] = []
        for t in dict.fromkeys(map(_to_images, gens)):  # each distinct seed once
            if t != self._identity:
                self._add_strong_generator(t)
        for level in range(len(self._base)):
            self._extend_orbit(level)
        self._close()

    @property
    def base(self) -> list[int]:
        return [b + 1 for b in self._base]

    @cached_property
    def transversals(self) -> list[dict[int, Permutation]]:
        return [
            {q + 1: _to_perm(u) for q, (u, _) in tr.items()} for tr in self._trans
        ]

    def order(self) -> int:
        return prod(map(len, self._trans))

    def level_generators(self, level: int) -> list[Permutation]:
        """S^(level): the strong generators fixing the first ``level`` base
        points, in the order they were added; empty past the last level."""
        if level < 0:
            raise ValueError(f"level {level} is negative")
        return [_to_perm(s) for s, _ in self._gens[level]] if level < len(self._gens) else []

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatchError(f"degree {g.degree} != {self.degree}")
        return self._sift(_to_images(g), 0) == self._identity

    # -- construction internals, all on 0-based image tuples ---------------

    def _add_strong_generator(self, g: _Images) -> int:
        """Append g to S^(0..level), base[level] being the first base point g
        moves (a new one if g fixes the base), and return level."""
        level = next((i for i, b in enumerate(self._base) if g[b] != b), len(self._base))
        if level == len(self._base):
            point = next(p for p, q in enumerate(g) if p != q)
            self._base.append(point)
            self._trans.append({point: (self._identity, self._identity)})
            self._gens.append([])
        inv = [0] * self.degree
        for p, q in enumerate(g):
            inv[q] = p
        pair = (g, tuple(inv))
        for i in range(level + 1):
            self._gens[i].append(pair)
        return level

    def _extend_orbit(self, level: int) -> None:
        """Grow the level's orbit in place, breadth-first from its points."""
        gens = self._gens[level]
        tr = self._trans[level]
        queue = list(tr)
        for p in queue:
            u, u_inv = tr[p]
            for s, s_inv in gens:
                q = s[p]
                if q not in tr:
                    tr[q] = (tuple(map(s.__getitem__, u)), tuple(map(u_inv.__getitem__, s_inv)))
                    queue.append(q)

    def _sift(self, g: _Images, start: int) -> _Images:
        """Strip g through levels >= start; return the residue."""
        for level in range(start, len(self._base)):
            entry = self._trans[level].get(g[self._base[level]])
            if entry is None:
                break
            g = tuple(map(entry[1].__getitem__, g))
        return g

    def _close(self) -> None:
        done: dict[tuple[int, int], int] = {}  # (level, point) -> tested prefix length of S^(level)
        level = len(self._base) - 1
        while level >= 0 and self.order() != self._ceiling:
            residue = self._untested_residue(level, done)
            if residue is None:
                level -= 1
                continue
            drop = self._add_strong_generator(residue)
            for lower in range(level + 1, drop + 1):
                self._extend_orbit(lower)
            level = drop

    def _untested_residue(self, level: int, done: dict) -> _Images | None:
        """Residue of the first untested Schreier generator u_q^-1 * s * u_p
        of the level that does not sift to the identity."""
        tr = self._trans[level]
        gens = self._gens[level]
        for p in sorted(tr):
            u_p = tr[p][0]
            for i in range(done.get((level, p), 0), len(gens)):
                s = gens[i][0]
                schreier = tuple(map(tr[s[p]][1].__getitem__, map(s.__getitem__, u_p)))
                if schreier != self._identity:
                    residue = self._sift(schreier, level + 1)
                    if residue != self._identity:
                        return residue
                done[level, p] = i + 1
        return None


def _to_images(x: Permutation) -> _Images:
    return tuple(p - 1 for p in x.images)


def _to_perm(t: _Images) -> Permutation:
    return Permutation(tuple(p + 1 for p in t))


def group_order(gens: Sequence[Permutation]) -> int:
    """Exact order of the subgroup generated inside the symmetric group."""
    return StabilizerChain(gens).order()


def generates_alternating(gens: Sequence[Permutation], n: int) -> bool:
    """True iff all generators are even, of degree n, and generate all of A_n.

    |A_n| = n!/2 for n >= 2; A_0 and A_1 are trivial, of order 1.
    """
    if any(g.degree != n for g in gens):
        raise DegreeMismatchError(f"generators must have degree {n}")
    if any(perm_parity(g) == "odd" for g in gens):
        return False
    return group_order(gens) == max(1, factorial(n) // 2)


@dataclass(frozen=True)
class AppendixEntry:
    """A labelled triple (x1, x2, x3) of permutations for one signature.

    The shipped entries satisfy x1*x2*x3 = 1 with orders matching the label's
    periods; arbitrary entries may violate that, which
    ``verify_appendix_entry`` reports as flags rather than errors.
    """

    periods: tuple[int, int, int]
    degree: int
    x1: Permutation
    x2: Permutation
    x3: Permutation

    @property
    def label(self) -> str:
        return "%d,%d,%d" % self.periods

    @property
    def generators(self) -> tuple[Permutation, Permutation, Permutation]:
        return (self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class AppendixReport:
    """Outcome flags of one certification run; ``ok`` is their conjunction."""

    label: str
    product_is_identity: bool
    order_matches: tuple[bool, bool, bool]
    all_even: tuple[bool, bool, bool]
    generates_alternating: bool
    z1_dim: int
    so_dim: int

    @property
    def margin(self) -> int:
        return self.z1_dim - self.so_dim

    @property
    def margin_positive(self) -> bool:
        return self.margin > 0

    @property
    def ok(self) -> bool:
        return (
            self.product_is_identity
            and all(self.order_matches)
            and all(self.all_even)
            and self.generates_alternating
            and self.margin_positive
        )


def verify_appendix_entry(entry: AppendixEntry) -> AppendixReport:
    """Certify one triple: product, orders, parities, generation, positivity.

    The positivity figure is the cocycle dimension at the alternating
    representation minus dim SO(degree - 1); failures show up as false flags
    in the report, never as exceptions.
    """
    product = perm_compose(perm_compose(entry.x1, entry.x2), entry.x3)
    orders = tuple(
        perm_order(x) == d for x, d in zip(entry.generators, entry.periods)
    )
    even = tuple(perm_parity(x) == "even" for x in entry.generators)
    gen_alt = generates_alternating(list(entry.generators), entry.degree)
    # the positivity figure needs order-faithful generators and a hyperbolic
    # label; a broken entry reports z1 = 0 so its margin flag reads false
    z1 = 0
    if all(orders):
        try:
            pres = FuchsianPresentation(0, entry.periods)
            z1 = z1_dim_alternating_so(pres, list(entry.generators), entry.degree)
        except ValueError:
            z1 = 0
    return AppendixReport(
        label=entry.label,
        product_is_identity=product.is_identity(),
        order_matches=orders,
        all_even=even,
        generates_alternating=gen_alt,
        z1_dim=z1,
        so_dim=so_dim(entry.degree - 1),
    )


def entry_to_text(entry: AppendixEntry) -> str:
    """Serialize: ``gamma=d1,d2,d3;degree=n`` header plus three cycle lines."""
    header = "gamma=%d,%d,%d;degree=%d" % (*entry.periods, entry.degree)
    return "\n".join([header, *(cycles_text(x) for x in entry.generators)]) + "\n"


def parse_entry_text(text: str) -> AppendixEntry:
    """Parse the ``entry_to_text`` format; blank lines are ignored."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) != 4:
        raise ValueError("expected a header line and exactly three cycle lines")
    header = lines[0]
    parts = header.split(";")
    if (
        len(parts) != 2
        or not parts[0].startswith("gamma=")
        or not parts[1].startswith("degree=")
    ):
        raise ValueError(f"bad header {header!r}")
    try:
        periods = tuple(int(tok) for tok in parts[0][len("gamma="):].split(","))
        degree = int(parts[1][len("degree="):])
    except ValueError:
        raise ValueError(f"bad header {header!r}") from None
    if len(periods) != 3:
        raise ValueError("entries carry exactly three periods")
    return _entry(periods, degree, *lines[1:])


def _entry(periods: tuple[int, int, int], degree: int, c1: str, c2: str, c3: str) -> AppendixEntry:
    return AppendixEntry(
        periods=periods,
        degree=degree,
        x1=perm_from_cycles(c1, degree),
        x2=perm_from_cycles(c2, degree),
        x3=perm_from_cycles(c3, degree),
    )


# the six certified triples, in printed order, cycle notation verbatim
APPENDIX_ENTRIES: tuple[AppendixEntry, ...] = (
    _entry(
        (2, 4, 6), 14,
        "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)",
        "(1 10 9 8)(2 14 13 3)(4 5)(6 7 12 11)",
        "(1 3 5 11 7 9)(2 8 6 4 13 14)",
    ),
    _entry(
        (2, 6, 6), 14,
        "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)",
        "(1 14 8 7 4 2)(3 5 13 11 9 6)",
        "(1 4 6 3 7 14)(5 9 10 11 12 13)",
    ),
    _entry(
        (3, 6, 6), 12,
        "(1 2 3)(4 5 6)(7 8 9)(10 11 12)",
        "(1 12 11 6 2 3)(4 10 8 9 5 7)",
        "(1 2 3 6 9 10)(4 11)(5 7 8)",
    ),
    _entry(
        (3, 4, 4), 14,
        "(1 2 3)(4 5 6)(7 8 9)(10 11 12)",
        "(1 14 11 12)(2 3 4 5)(7 10 13 9)(6 8)",
        "(1 2 12 14)(3 5)(4 8 9 6)(7 13 10 11)",
    ),
    _entry(
        (2, 6, 10), 12,
        "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)",
        "(1 8 6 7 5 3)(4 10 11)(9 12)",
        "(1 2 3 11 9 4 5 8 6 7)(10 12)",
    ),
    _entry(
        (4, 6, 12), 12,
        "(1 4 3 2)(5 8 7 6)(9 10)(11 12)",
        "(1 2 5 9 10 3)(4 7 11 8 6 12)",
        "(2 10 5 8)(3 12 7 11 6 4)",
    ),
)


def entry_by_label(label: str) -> AppendixEntry:
    """Look up a shipped entry by its ``d1,d2,d3`` label."""
    key = label.strip()
    for entry in APPENDIX_ENTRIES:
        if entry.label == key:
            return entry
    raise KeyError(f"no appendix entry labelled {label!r}")
