import pytest

from oracles import lie_dimension
from repvar.liedata import (
    ClassicalGroup,
    RootSystem,
    classical_dim,
    classical_rank,
    dimension,
    exponents,
    parse_classical_group,
    parse_root_system,
)


def test_exponent_examples():
    assert exponents(RootSystem("A", 1)) == (1,)
    assert exponents(RootSystem("G2", 2)) == (1, 5)
    assert exponents(RootSystem("E8", 8)) == (1, 7, 11, 13, 17, 19, 23, 29)
    assert exponents(RootSystem("E6", 6)) == (1, 4, 5, 7, 8, 11)
    assert exponents(RootSystem("E7", 7)) == (1, 5, 7, 9, 11, 13, 17)
    assert exponents(RootSystem("F4", 4)) == (1, 5, 7, 11)
    assert exponents(RootSystem("A", 5)) == (1, 2, 3, 4, 5)
    assert exponents(RootSystem("B", 4)) == (1, 3, 5, 7)
    assert exponents(RootSystem("D", 4)) == (1, 3, 3, 5)


def test_dimension_examples():
    assert dimension(RootSystem("F4", 4)) == 52
    assert dimension(RootSystem("A", 1)) == 3
    assert dimension(RootSystem("D", 4)) == 28
    assert dimension(RootSystem("E6", 6)) == 78
    assert dimension(RootSystem("E7", 7)) == 133
    assert dimension(RootSystem("E8", 8)) == 248
    assert dimension(RootSystem("G2", 2)) == 14


def test_dimension_identity_all_families_up_to_rank_50():
    systems = [RootSystem("A", n) for n in range(1, 51)]
    systems += [RootSystem("B", n) for n in range(2, 51)]
    systems += [RootSystem("C", n) for n in range(2, 51)]
    systems += [RootSystem("D", n) for n in range(3, 51)]
    systems += [RootSystem(f, r) for f, r in
                (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2))]
    for rs in systems:
        # the closed forms check the exponent tables that dimension sums over
        assert dimension(rs) == lie_dimension(rs.family, rs.rank), rs
        assert len(exponents(rs)) == rs.rank


def test_b_and_c_share_exponents_and_dimension():
    for n in range(2, 30):
        assert exponents(RootSystem("B", n)) == exponents(RootSystem("C", n))
        assert dimension(RootSystem("B", n)) == 2 * n * n + n
        assert dimension(RootSystem("C", n)) == 2 * n * n + n


def test_d3_is_a3_alias():
    assert exponents(RootSystem("D", 3)) == exponents(RootSystem("A", 3))
    assert dimension(RootSystem("D", 3)) == dimension(RootSystem("A", 3)) == 15


def test_rank_constraints():
    with pytest.raises(ValueError):
        RootSystem("B", 1)
    with pytest.raises(ValueError):
        RootSystem("D", 2)
    with pytest.raises(ValueError):
        RootSystem("E6", 7)
    with pytest.raises(ValueError):
        RootSystem("H", 3)
    RootSystem("A", 1)  # minimum ranks are allowed
    RootSystem("C", 2)


def test_classical_dims():
    assert classical_dim(ClassicalGroup("SO", 13)) == 78
    assert classical_dim(ClassicalGroup("SU", 2)) == 3
    assert classical_dim(ClassicalGroup("SO", 11)) == 55
    assert classical_rank(ClassicalGroup("SO", 13)) == 6
    assert classical_rank(ClassicalGroup("SU", 7)) == 6
    with pytest.raises(ValueError):
        ClassicalGroup("SO", 1)
    with pytest.raises(ValueError):
        ClassicalGroup("SP", 4)


def test_parsing():
    assert parse_root_system("A5") == RootSystem("A", 5)
    assert parse_root_system("B12") == RootSystem("B", 12)
    assert parse_root_system("E8") == RootSystem("E8", 8)
    assert parse_root_system("G2").label() == "G2"
    assert parse_root_system("A5").label() == "A5"
    assert parse_classical_group("SO(13)") == ClassicalGroup("SO", 13)
    assert parse_classical_group("SU(7)") == ClassicalGroup("SU", 7)
    for bad in ("E9", "A", "B0", "X4", "SO13", "SU(x)"):
        with pytest.raises(ValueError):
            parse_root_system(bad) if bad[0] in "ABCDEFG" else parse_classical_group(bad)
