"""Cocompact oriented Fuchsian group signatures.

A signature is a genus g >= 0 together with a multiset of torsion periods
d_1, ..., d_m, each >= 2.  The group it names has Euler characteristic

    chi = 2 - 2g - sum_i (1 - 1/d_i),

and the signature is admissible (hyperbolic) exactly when chi < 0.  Periods
are kept sorted: the genus and the period multiset determine the group up to
isomorphism, so order is never significant.

All arithmetic is exact: no floating point is used anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
import re
from typing import Iterable

INT_TOKEN = re.compile("0|[1-9][0-9]*")  # ASCII; no sign, padding or leading zeros


def parse_int_token(text: str) -> int:
    """Read the text parsers' one integer token; others raise ``ValueError``."""
    if INT_TOKEN.fullmatch(text) is None:
        raise ValueError(f"not an integer token: {text!r}")
    return int(text)


class Record:
    """Immutable record: annotated fields in order (``_fields``), class attributes
    as their defaults.  The generated ``__init__`` ends in ``self.__post_init__()``
    where the class defines one.  Records compare, hash and print by field tuple.
    """

    def __init_subclass__(cls) -> None:
        # under `from __future__ import annotations` these are strings, never evaluated
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls.__match_args__ = cls._fields
        params = ["self"]
        lines = []
        for name in cls._fields:
            params.append(f"{name}=cls.{name}" if name in cls.__dict__ else name)
            lines.append(f"    object.__setattr__(self, {name!r}, {name})")
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        source = f"def __init__({', '.join(params)}):\n" + "\n".join(lines or ["    pass"])
        namespace = {"cls": cls}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # named in TypeErrors

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} fields are read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} fields are read-only")


class SignatureError(ValueError):
    """A signature violates one of the construction invariants."""


class BadPeriodError(SignatureError):
    """A torsion period is smaller than 2 (or the genus is negative)."""


class NonHyperbolicError(SignatureError):
    """The signature has Euler characteristic >= 0."""


def euler_characteristic(genus: int, periods: Iterable[int]) -> Fraction:
    """Exact Euler characteristic 2 - 2g - sum(1 - 1/d) of a signature.

    Hyperbolicity is *not* assumed: this is the quantity the validator
    inspects, so it accepts e.g. the Euclidean triple (3, 3, 3) and returns 0.
    Negative genus or a period < 2 raises ``BadPeriodError``.
    """
    periods = tuple(periods)
    if genus < 0:
        raise BadPeriodError(f"genus must be non-negative, got {genus}")
    for d in periods:
        if d < 2:
            raise BadPeriodError(f"periods must be >= 2, got {d}")
    return Fraction(2) - 2 * genus - sum(1 - Fraction(1, d) for d in periods)


class FuchsianPresentation(Record):
    """A hyperbolic signature (g; d_1, ..., d_m), periods sorted ascending.

    Construction computes chi once, keeps it and rejects chi >= 0, so every
    instance names an actual cocompact Fuchsian group.  Instances are
    immutable and compare by (genus, period multiset).
    """

    genus: int
    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "periods", tuple(sorted(self.periods)))
        chi = euler_characteristic(self.genus, self.periods)
        if chi >= 0:
            raise NonHyperbolicError(
                f"signature g={self.genus}, d={list(self.periods)} has "
                f"Euler characteristic {chi} >= 0"
            )
        object.__setattr__(self, "_chi", chi)  # not a field: equality, hash and repr ignore it

    @property
    def m(self) -> int:
        return len(self.periods)

    def euler_characteristic(self) -> Fraction:
        return self._chi

    def __str__(self) -> str:
        """Render in the CLI syntax, e.g. ``g=0;d=2,3,7`` (empty: ``g=2;d=``)."""
        return f"g={self.genus};d=" + ",".join(str(d) for d in self.periods)


def validate(genus: int, periods: Iterable[int]) -> FuchsianPresentation:
    """Return the canonical presentation, or raise naming the failed invariant.

    Raises ``BadPeriodError`` for a period < 2 or negative genus and
    ``NonHyperbolicError`` when the Euler characteristic is >= 0.
    """
    return FuchsianPresentation(genus, tuple(periods))


def parse_signature(text: str) -> tuple[int, tuple[int, ...]]:
    """Parse the raw ``g=<int>;d=<c1>,<c2>,...`` syntax without validating.

    Returns the (genus, periods) pair so that callers like the Euler
    characteristic command can work on non-hyperbolic candidates.  Each
    number is an ``INT_TOKEN``; syntax errors raise ``SignatureError``.
    """
    parts = text.strip().split(";")
    if len(parts) != 2 or not parts[0].startswith("g=") or not parts[1].startswith("d="):
        raise SignatureError(f"expected 'g=<int>;d=<c1>,<c2>,...', got {text!r}")
    try:
        genus = parse_int_token(parts[0][2:])
    except ValueError:
        raise SignatureError(f"bad genus in {text!r}") from None
    body = parts[1][2:]
    try:
        periods = tuple(map(parse_int_token, body.split(","))) if body else ()
    except ValueError:
        raise SignatureError(f"bad period list in {text!r}") from None
    return genus, periods


def parse_presentation(text: str) -> FuchsianPresentation:
    """Parse and validate a presentation from its CLI syntax."""
    genus, periods = parse_signature(text)
    return validate(genus, periods)
