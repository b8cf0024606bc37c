import random
from fractions import Fraction

import pytest

from oracles import (
    class_to_permutation,
    ext_square_fixed_oracle,
    identity_perm,
    partitions,
    perm_inverse,
    perm_power,
)
from repvar.eigen import (
    DegreeMismatchError,
    EigenProfile,
    balanced_class,
    cycle_type_std_eigenprofile,
    cycles_text,
    exterior_square_fixed_dim,
    perm_compose,
    perm_from_cycles,
    perm_order,
    perm_parity,
    perm_std_eigenprofile,
    principal_eigenprofile,
    principal_fixed_dim,
    su_centralizer_dim,
)
from repvar.liedata import RootSystem, dimension


def _all_systems(max_rank):
    systems = [RootSystem("A", n) for n in range(1, max_rank + 1)]
    systems += [RootSystem("B", n) for n in range(2, max_rank + 1)]
    systems += [RootSystem("C", n) for n in range(2, max_rank + 1)]
    systems += [RootSystem("D", n) for n in range(3, max_rank + 1)]
    systems += [RootSystem(f, r) for f, r in
                (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2))]
    return systems


def test_eigenprofile_invariants():
    p = EigenProfile((1, 1, 1), real=True)
    assert (p.order, p.dim) == (3, 3)
    with pytest.raises(ValueError):
        EigenProfile(())
    with pytest.raises(ValueError):
        EigenProfile((1, -1, 1))
    with pytest.raises(ValueError):
        EigenProfile((1, 2, 0, 1), real=True)  # not self-dual


def test_principal_fixed_dim_examples():
    assert principal_fixed_dim(RootSystem("E8", 8), 2) == 120
    assert principal_fixed_dim(RootSystem("E6", 6), 2) == 38
    for rs in (RootSystem("A", 1), RootSystem("F4", 4), RootSystem("B", 5)):
        assert principal_fixed_dim(rs, 1) == dimension(rs)


def test_principal_eigenprofile_examples():
    a1 = RootSystem("A", 1)
    assert principal_eigenprofile(a1, 2).multiplicities == (1, 2)
    assert principal_eigenprofile(a1, 3).multiplicities == (1, 1, 1)
    g2 = principal_eigenprofile(RootSystem("G2", 2), 7)
    assert g2.multiplicities[0] == 2
    assert g2.real


def test_principal_profile_m0_matches_fixed_dim():
    for rs in _all_systems(12):
        for d in range(2, 25):
            profile = principal_eigenprofile(rs, d)
            assert profile.multiplicities[0] == principal_fixed_dim(rs, d)
            assert profile.dim == dimension(rs)
            assert profile.real


def test_perm_basic_ops():
    x = perm_from_cycles("(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)", 14)
    assert perm_order(x) == 2
    assert perm_parity(x) == "even"
    three_cycle = perm_from_cycles("(1 2 3)", 5)
    assert perm_parity(three_cycle) == "even"
    assert perm_order(three_cycle) == 3
    ident = identity_perm(5)
    assert perm_compose(three_cycle, ident) == three_cycle
    assert perm_compose(ident, three_cycle) == three_cycle
    assert perm_compose(three_cycle, perm_inverse(three_cycle)) == ident
    assert perm_power(three_cycle, 3) == ident
    with pytest.raises(DegreeMismatchError):
        perm_compose(ident, identity_perm(6))


def test_perm_compose_applies_right_factor_first():
    x = perm_from_cycles("(1 2)", 3)
    y = perm_from_cycles("(2 3)", 3)
    # (x*y)(3) = x(y(3)) = x(2) = 1
    assert perm_compose(x, y)(3) == 1
    assert perm_compose(y, x)(3) == 2


def test_cycle_parsing_and_rendering():
    x = perm_from_cycles("( 1 2 ) (3  4)", 6)
    assert x.cycle_type() == (2, 2, 1, 1)
    assert cycles_text(x) == "(1 2)(3 4)"
    assert cycles_text(identity_perm(4)) == "()"
    assert perm_from_cycles("", 3) == identity_perm(3)
    with pytest.raises(ValueError):
        perm_from_cycles("(1 2)(2 3)", 4)  # not disjoint
    with pytest.raises(ValueError):
        perm_from_cycles("(1 9)", 4)  # out of range
    with pytest.raises(ValueError):
        perm_from_cycles("1 2 3", 4)  # no cycle syntax


def test_perm_std_eigenprofile_examples():
    p = perm_std_eigenprofile(identity_perm(5))
    assert (p.order, p.multiplicities) == (1, (4,))
    p = perm_std_eigenprofile(perm_from_cycles("(1 2 3)", 3))
    assert (p.order, p.multiplicities) == (3, (0, 1, 1))
    p = perm_std_eigenprofile(perm_from_cycles("(1 2)(3 4)", 4))
    assert (p.order, p.multiplicities) == (2, (1, 2))
    # the balanced involution: six 2-cycles and two fixed points on 14 points
    p = cycle_type_std_eigenprofile(balanced_class(14, 2))
    assert (p.order, p.multiplicities) == (2, (7, 6))
    # total multiplicity is degree - 1
    for text, degree in (("(1 2 3)(4 5)", 7), ("(1 4)(2 5)(3 6)", 9)):
        x = perm_from_cycles(text, degree)
        assert perm_std_eigenprofile(x).dim == degree - 1


def test_exterior_square_fixed_dim_examples():
    for v in range(2, 9):
        ident = EigenProfile((v,))
        assert exterior_square_fixed_dim(ident) == v * (v - 1) // 2
    assert exterior_square_fixed_dim(EigenProfile((0, 1, 1))) == 1
    assert exterior_square_fixed_dim(EigenProfile((1, 2))) == 1


def test_exterior_square_matches_character_oracle_exhaustively():
    # every cycle type of degree <= 10, closed form vs character average
    for degree in range(1, 11):
        for cycle_type in partitions(degree):
            x = class_to_permutation(cycle_type)
            closed = exterior_square_fixed_dim(perm_std_eigenprofile(x))
            assert closed == ext_square_fixed_oracle(x), cycle_type


def test_su_centralizer_dim_examples():
    for n in range(2, 8):
        assert su_centralizer_dim(EigenProfile((n,))) == n * n - 1
        regular = EigenProfile((1,) * n)
        assert su_centralizer_dim(regular) == n - 1
    assert su_centralizer_dim(EigenProfile((1, 2))) == 4


def test_su_centralizer_cauchy_schwarz_bound():
    # sum of squared multiplicities is at least n^2 / k, for profiles from
    # permutations, principal images, and seeded random data
    profiles = []
    for degree in range(3, 11):
        profiles.extend(
            perm_std_eigenprofile(class_to_permutation(ct)) for ct in partitions(degree)
        )
    for rs in _all_systems(8):
        profiles.extend(principal_eigenprofile(rs, d) for d in range(2, 13))
    rng = random.Random(424242)
    for _ in range(300):
        k = rng.randint(1, 12)
        profiles.append(EigenProfile(tuple(rng.randint(0, 6) for _ in range(k))))
    for p in profiles:
        if p.dim < 2:
            continue
        k, n = p.order, p.dim
        assert su_centralizer_dim(p) + 1 >= Fraction(n * n, k)
        assert su_centralizer_dim(p) > Fraction(n * n - 1, k) - 1


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
            assert cycle_type_std_eigenprofile(lengths) == perm_std_eigenprofile(x)
