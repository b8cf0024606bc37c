import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from oracles import (
    class_to_permutation,
    ext_square_fixed_oracle,
    ext_square_profile_oracle,
    identity_perm,
    partitions,
    perm_inverse,
    perm_power,
    principal_multiplicities,
    std_multiplicities,
)
from repvar.eigen import (
    DegreeMismatchError,
    Permutation,
    balanced_class,
    exterior_square_fixed_dim,
    perm_compose,
    perm_from_cycles,
    perm_order,
    perm_parity,
    principal_fixed_dim,
)
from repvar.liedata import RootSystem, dimension


def _all_systems(max_rank):
    systems = [RootSystem("A", n) for n in range(1, max_rank + 1)]
    systems += [RootSystem("B", n) for n in range(2, max_rank + 1)]
    systems += [RootSystem("C", n) for n in range(2, max_rank + 1)]
    systems += [RootSystem("D", n) for n in range(3, max_rank + 1)]
    systems += [RootSystem(f, r) for f, r in
                (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
    return systems


def test_principal_fixed_dim_examples():
    assert principal_fixed_dim(RootSystem("E", 8), 2) == 120
    assert principal_fixed_dim(RootSystem("E", 6), 2) == 38
    for rs in (RootSystem("A", 1), RootSystem("F", 4), RootSystem("B", 5)):
        assert principal_fixed_dim(rs, 1) == dimension(rs)
    with pytest.raises(ValueError, match="order must be >= 1"):
        principal_fixed_dim(RootSystem("E", 8), 0)


def test_principal_profile_m0_matches_fixed_dim():
    for rs in _all_systems(12):
        for d in range(2, 25):
            m = principal_multiplicities(rs, d)
            assert m[0] == principal_fixed_dim(rs, d)
            assert sum(m) == dimension(rs)


def test_perm_basic_ops():
    x = perm_from_cycles("(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)", 14)
    assert perm_order(x) == 2
    assert perm_parity(x) == "even"
    three_cycle = perm_from_cycles("(1 2 3)", 5)
    assert perm_parity(three_cycle) == "even"
    assert perm_order(three_cycle) == 3
    assert perm_order(Permutation(())) == 1  # lcm() of the empty cycle type
    ident = identity_perm(5)
    assert perm_compose(three_cycle, ident) == three_cycle
    assert perm_compose(ident, three_cycle) == three_cycle
    assert perm_compose(three_cycle, perm_inverse(three_cycle)) == ident
    assert perm_power(three_cycle, 3) == ident
    with pytest.raises(DegreeMismatchError):
        perm_compose(ident, identity_perm(6))
    with pytest.raises(ValueError, match="bijection"):
        Permutation((1, 1, 3))


def test_perm_compose_applies_right_factor_first():
    x = perm_from_cycles("(1 2)", 3)
    y = perm_from_cycles("(2 3)", 3)
    # (x*y)(3) = x(y(3)) = x(2) = 1
    assert perm_compose(x, y).images[3 - 1] == 1
    assert perm_compose(y, x).images[3 - 1] == 2


def test_cycle_parsing_and_rendering():
    x = perm_from_cycles("( 1 2 ) (3  4)", 6)
    assert x.cycle_type() == (2, 2, 1, 1)
    assert str(x) == "(1 2)(3 4)"
    assert str(identity_perm(4)) == "()"
    assert perm_from_cycles("", 3) == identity_perm(3)
    with pytest.raises(ValueError):
        perm_from_cycles("(1 2)(2 3)", 4)  # not disjoint
    with pytest.raises(ValueError):
        perm_from_cycles("(1 9)", 4)  # out of range
    with pytest.raises(ValueError):
        perm_from_cycles("1 2 3", 4)  # no cycle syntax
    # each point is an ASCII integer token: no other digits, no leading zeros
    for text in ("(1 \u0663)(02 4)", "(01 3 5 11 7 9)(2 8 6 4 13 14)", "(1 2)(3 04)"):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse cycle notation {text!r}")):
            perm_from_cycles(text, 14)


# the cycle-notation pattern before it was made linear; it nests two stars
_NESTED_CYCLE_PATTERN = r"(\s*\(\s*(\d+[\s,]*)*\))*\s*"


def test_cycle_pattern_accepts_what_the_nested_pattern_accepted():
    # every string of length <= 7 over these characters: 335,923 inputs
    alphabet = "() 1,x"
    for length in range(8):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            try:
                perm_from_cycles(text, 20)
                parsed = True
            except ValueError as exc:
                parsed = not str(exc).startswith("cannot parse cycle notation")
            assert parsed == bool(re.fullmatch(_NESTED_CYCLE_PATTERN, text.strip())), text


def test_long_malformed_cycle_line_fails_fast():
    # the nested pattern backtracked exponentially on a digit run like this
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot parse cycle notation"):
        perm_from_cycles("(" + "1" * 10_000 + ")(", 20)
    assert time.perf_counter() - start < 1.0


def test_perm_std_eigenprofile_examples():
    assert std_multiplicities(identity_perm(5).cycle_type()) == (4,)
    assert std_multiplicities(perm_from_cycles("(1 2 3)", 3).cycle_type()) == (0, 1, 1)
    assert std_multiplicities(perm_from_cycles("(1 2)(3 4)", 4).cycle_type()) == (1, 2)
    # the balanced involution: six 2-cycles and two fixed points on 14 points
    assert std_multiplicities(balanced_class(14, 2)) == (7, 6)
    # total multiplicity is degree - 1
    for text, degree in (("(1 2 3)(4 5)", 7), ("(1 4)(2 5)(3 6)", 9)):
        x = perm_from_cycles(text, degree)
        assert sum(std_multiplicities(x.cycle_type())) == degree - 1


def test_exterior_square_fixed_dim_examples():
    for v in range(2, 9):  # the identity fixes all of the exterior square
        assert exterior_square_fixed_dim((1,) * (v + 1)) == v * (v - 1) // 2
    assert exterior_square_fixed_dim((3,)) == 1
    assert exterior_square_fixed_dim([2, 2]) == 1
    for bad in ((), [], (3, 0), (-1, 15), (2, -2, 2)):
        with pytest.raises(ValueError, match="non-empty list of positive lengths"):
            exterior_square_fixed_dim(bad)


def test_exterior_square_matches_character_oracle_exhaustively():
    # every cycle type of degree <= 10, orbit count vs character average
    for degree in range(1, 11):
        for cycle_type in partitions(degree):
            x = class_to_permutation(cycle_type)
            assert exterior_square_fixed_dim(x.cycle_type()) == ext_square_fixed_oracle(x), cycle_type


def test_exterior_square_matches_profile_oracle_on_seeded_types():
    # the orbit count vs eigenvalue pairs of the standard profile, on random
    # cycle types of degree 2..30 (profiles stay below the order 4,620)
    rng = random.Random(1401)
    for _ in range(1000):
        lengths, left = [], rng.randint(2, 30)
        while left:
            lengths.append(rng.randint(1, left))
            left -= lengths[-1]
        rng.shuffle(lengths)
        assert exterior_square_fixed_dim(lengths) == ext_square_profile_oracle(lengths), lengths


def test_centralizer_fix_bounds_on_principal_images():
    # inner-automorphism bound fix >= dim/d - rank, and the 3/2-rank
    # relaxation, exactly in rational arithmetic
    for rs in _all_systems(12):
        dim, rank = dimension(rs), rs.rank
        for d in range(2, 25):
            fix = principal_fixed_dim(rs, d)
            assert fix >= Fraction(dim, d) - rank
            assert fix >= Fraction(dim, d) - Fraction(3, 2) * rank


def test_balanced_class_examples():
    assert balanced_class(14, 2) == (2,) * 6 + (1, 1)
    assert balanced_class(7, 3) == (3, 3, 1)
    assert balanced_class(9, 2) == (2, 2, 2, 2, 1)


def test_balanced_class_errors():
    with pytest.raises(ValueError):
        balanced_class(3, 4)  # no 4-cycle fits
    with pytest.raises(ValueError):
        balanced_class(3, 2)  # a single 2-cycle is odd, and none is trivial
    with pytest.raises(ValueError):
        balanced_class(5, 1)


def test_balanced_class_properties():
    for n in range(4, 40):
        for d in range(2, n + 1):
            try:
                lengths = balanced_class(n, d)
            except ValueError:
                assert d % 2 == 0 and n < 2 * d
                continue
            assert sum(lengths) == n
            assert set(lengths) <= {d, 1}
            fixed = lengths.count(1)
            assert fixed <= 2 * d - 1
            x = class_to_permutation(lengths)
            assert perm_parity(x) == "even"
            assert perm_order(x) == d
            assert x.cycle_type() == lengths
