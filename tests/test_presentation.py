from fractions import Fraction

import pytest

from repvar.presentation import (
    BadPeriodError,
    FuchsianPresentation,
    NonHyperbolicError,
    SignatureError,
    euler_characteristic,
    parse_presentation,
    parse_signature,
    validate,
)


def test_euler_characteristic_examples():
    assert euler_characteristic(2, ()) == -2
    assert euler_characteristic(0, (2, 3, 7)) == Fraction(-1, 42)
    assert euler_characteristic(0, (3, 3, 3)) == 0  # Euclidean boundary case


def test_euler_characteristic_rejects_bad_input():
    with pytest.raises(BadPeriodError):
        euler_characteristic(0, (1, 3, 7))
    with pytest.raises(BadPeriodError):
        euler_characteristic(-1, (2, 3, 7))
    with pytest.raises(BadPeriodError):
        euler_characteristic(0, (2, 3, 0))


def test_validate_examples():
    p = validate(0, (2, 4, 6))
    assert p.euler_characteristic() == Fraction(-1, 12)
    with pytest.raises(NonHyperbolicError):
        validate(0, (2, 4, 4))
    with pytest.raises(NonHyperbolicError):
        validate(1, ())  # torus


def test_periods_are_sorted_and_order_insensitive():
    a = FuchsianPresentation(0, (7, 2, 3))
    b = FuchsianPresentation(0, (3, 7, 2))
    assert a == b
    assert a.periods == (2, 3, 7)
    assert a.euler_characteristic() == b.euler_characteristic()


def test_all_valid_presentations_are_hyperbolic():
    # every constructible signature has negative Euler characteristic
    for g in range(3):
        for m in range(5):
            for base in range(2, 8):
                periods = tuple([base] * m)
                try:
                    p = FuchsianPresentation(g, periods)
                except NonHyperbolicError:
                    continue
                assert p.euler_characteristic() < 0


def test_triangle_hyperbolicity_criterion():
    # for g=0, m=3: chi < 0 iff 1/d1 + 1/d2 + 1/d3 < 1
    for d1 in range(2, 13):
        for d2 in range(d1, 13):
            for d3 in range(d2, 13):
                chi = euler_characteristic(0, (d1, d2, d3))
                angle_sum = Fraction(1, d1) + Fraction(1, d2) + Fraction(1, d3)
                assert (chi < 0) == (angle_sum < 1)


def test_signature_text_round_trip():
    for text in ("g=0;d=2,3,7", "g=2;d=", "g=1;d=5", "g=0;d=2,2,2,3"):
        p = parse_presentation(text)
        assert str(p) == text
        assert parse_presentation(str(p)) == p


def test_parse_rejects_malformed_text():
    for bad in ("", "g=0", "d=2,3,7", "g=x;d=2,3,7", "g=0;d=2,,3", "g=0;d=2 3"):
        with pytest.raises(SignatureError):
            parse_signature(bad)


def test_parse_reads_only_ascii_integer_tokens():
    # 0 or [1-9][0-9]*: no sign, padding, separator, leading zero or
    # non-ASCII digit; only the text as a whole is stripped
    assert parse_signature(" g=0;d=2,3,10 ") == (0, (2, 3, 10))
    assert parse_signature("g=10;d=0,20") == (10, (0, 20))
    for genus in ("+0", "00", "01", " 0", "0 ", "-1", "1_0", "\u0663", "\uff11"):
        with pytest.raises(SignatureError, match="^bad genus in "):
            parse_signature(f"g={genus};d=2,3,7")
    for periods in ("2_0", "+2", "02", " 2", "2 ,3", "2, 3,7", "-2", "\u0663", "7,"):
        with pytest.raises(SignatureError, match="^bad period list in "):
            parse_signature(f"g=0;d={periods}")


def test_parse_signature_allows_non_hyperbolic_candidates():
    assert parse_signature("g=0;d=3,3,3") == (0, (3, 3, 3))
    with pytest.raises(NonHyperbolicError):
        parse_presentation("g=0;d=3,3,3")
