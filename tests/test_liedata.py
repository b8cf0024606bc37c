import pytest

from oracles import lie_dimension
from repvar.liedata import (
    RootSystem,
    dimension,
    exponents,
    group_dim_rank,
    parse_root_system,
)


def test_exponent_examples():
    assert exponents(RootSystem("A", 1)) == (1,)
    assert exponents(RootSystem("G", 2)) == (1, 5)
    assert exponents(RootSystem("E", 8)) == (1, 7, 11, 13, 17, 19, 23, 29)
    assert exponents(RootSystem("E", 6)) == (1, 4, 5, 7, 8, 11)
    assert exponents(RootSystem("E", 7)) == (1, 5, 7, 9, 11, 13, 17)
    assert exponents(RootSystem("F", 4)) == (1, 5, 7, 11)
    assert exponents(RootSystem("A", 5)) == (1, 2, 3, 4, 5)
    assert exponents(RootSystem("B", 4)) == (1, 3, 5, 7)
    assert exponents(RootSystem("D", 4)) == (1, 3, 3, 5)


def test_dimension_examples():
    assert dimension(RootSystem("F", 4)) == 52
    assert dimension(RootSystem("A", 1)) == 3
    assert dimension(RootSystem("D", 4)) == 28
    assert dimension(RootSystem("E", 6)) == 78
    assert dimension(RootSystem("E", 7)) == 133
    assert dimension(RootSystem("E", 8)) == 248
    assert dimension(RootSystem("G", 2)) == 14


def test_dimension_identity_all_families_up_to_rank_50():
    systems = [RootSystem("A", n) for n in range(1, 51)]
    systems += [RootSystem("B", n) for n in range(2, 51)]
    systems += [RootSystem("C", n) for n in range(2, 51)]
    systems += [RootSystem("D", n) for n in range(3, 51)]
    systems += [RootSystem(f, r) for f, r in
                (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
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
        RootSystem("E", 9)
    with pytest.raises(ValueError):
        RootSystem("F", 5)
    with pytest.raises(ValueError):
        RootSystem("H", 3)
    RootSystem("A", 1)  # minimum ranks are allowed
    RootSystem("C", 2)


def test_label_round_trips_for_all_nine_families():
    for token in ("A5", "B12", "C2", "D7", "E6", "E7", "E8", "F4", "G2"):
        rs = parse_root_system(token)
        assert rs == RootSystem(token[0], int(token[1:]))
        assert str(rs) == token


def test_classical_dims():
    assert group_dim_rank("SO(13)") == (78, 6)
    assert group_dim_rank("SU(2)") == (3, 1)
    assert group_dim_rank("SO(11)") == (55, 5)
    assert group_dim_rank("SU(7)") == (48, 6)
    assert group_dim_rank(" SO(2) ") == (1, 1)
    for bad, message in (("SO(1)", "n must be >= 2, got 1"), ("SU(0)", "got 0")):
        with pytest.raises(ValueError, match=message):
            group_dim_rank(bad)
    with pytest.raises(ValueError, match="cannot parse classical group 'SP\\(4\\)'"):
        group_dim_rank("SP(4)")


def test_classical_closed_forms_match_the_exponents():
    # SU(n) is A_{n-1}, SO(2k+1) is B_k (A_1 for k = 1) and SO(2k) is D_k for
    # k >= 3: the closed forms give the dimension and rank of the exponents
    for n in range(2, 61):
        k = n // 2
        systems = [("SU", RootSystem("A", n - 1))]
        if n % 2:
            systems.append(("SO", RootSystem("B", k) if k >= 2 else RootSystem("A", 1)))
        elif k >= 3:
            systems.append(("SO", RootSystem("D", k)))
        for kind, rs in systems:
            expected = (dimension(rs), len(exponents(rs)))
            assert group_dim_rank(f"{kind}({n})") == expected, (kind, n)


def test_parsing():
    assert parse_root_system("A5") == RootSystem("A", 5)
    assert parse_root_system("B12") == RootSystem("B", 12)
    assert parse_root_system("E8") == RootSystem("E", 8)
    assert str(parse_root_system("G2")) == "G2"
    assert str(parse_root_system("A5")) == "A5"
    assert group_dim_rank("E8") == (248, 8)
    assert group_dim_rank(" B12 ") == (300, 12)
    for bad in ("E9", "A", "B0", "X4", "SO13", "SU(x)"):
        with pytest.raises(ValueError):
            group_dim_rank(bad)
        if bad[0] in "ABCDEFG":
            with pytest.raises(ValueError):
                parse_root_system(bad)
