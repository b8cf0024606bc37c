import itertools
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import EXCEPTIONAL_SET, INTERVAL_EXCEPTIONS, WITNESS_FAILURES
from oracles import least_triangle_witness, smallest_interval_numerator
from repvar import density
from repvar.density import (
    ExceptionalSet,
    GenusPositive,
    IndexTwoRealization,
    InductiveReduction,
    TriangleWitness,
    coprime_in_interval,
    interval_coprime,
    is_so3_dense,
    scan_hyperbolic_triples,
    strict_triangle,
    triangle_witness,
)
from repvar.presentation import FuchsianPresentation, NonHyperbolicError


def test_strict_triangle_examples():
    assert not strict_triangle(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert strict_triangle(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert strict_triangle(Fraction(1, 2), Fraction(1, 3), Fraction(3, 7))
    with pytest.raises(ValueError):
        strict_triangle(Fraction(1, 2), Fraction(2, 3), Fraction(1, 4))
    with pytest.raises(ValueError):
        strict_triangle(Fraction(0), Fraction(1, 3), Fraction(1, 4))


def test_triangle_witness_examples():
    # exhaustive lexicographic search; (1,1,2) satisfies 1/2 < 1/3 + 2/7
    assert triangle_witness(2, 3, 7) == (1, 1, 2)
    assert triangle_witness(2, 4, 6) is None
    assert triangle_witness(5, 5, 5) == (1, 1, 1)
    assert triangle_witness(3, 4, 4) == (1, 1, 1)
    with pytest.raises(ValueError):
        triangle_witness(2, 3, 6)  # Euclidean, not hyperbolic


def test_triangle_witness_is_lazy_on_large_periods():
    # the witness is (1, 1, 1), so the search must not list the half
    # million coprime numerators of each period before trying the first
    for strict in (True, False):
        tracemalloc.start()
        try:
            witness = triangle_witness(1000003, 1000033, 1000037, strict)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness == (1, 1, 1)
        assert peak < 1 << 20


def test_witness_validity_and_monotonicity():
    for d1 in range(2, 15):
        for d2 in range(d1, 15):
            for d3 in range(d2, 15):
                if Fraction(1, d1) + Fraction(1, d2) + Fraction(1, d3) >= 1:
                    continue
                strict = triangle_witness(d1, d2, d3, strict=True)
                loose = triangle_witness(d1, d2, d3, strict=False)
                if strict is None:
                    continue
                qs = [Fraction(a, d) for a, d in zip(strict, (d1, d2, d3))]
                assert strict_triangle(*qs)
                for a, d in zip(strict, (d1, d2, d3)):
                    assert gcd(a, d) == 1 and 0 < Fraction(a, d) <= Fraction(1, 2)
                # a strict witness is in particular a non-strict witness, so
                # the non-strict search cannot come back empty
                assert loose is not None


def test_scan_hyperbolic_triples():
    assert scan_hyperbolic_triples(12) == sorted(
        {(2, 4, 6), (2, 6, 6), (2, 6, 10), (3, 6, 6), (4, 6, 12)}
    )
    assert scan_hyperbolic_triples(7) == [(2, 4, 6), (2, 6, 6), (3, 6, 6)]
    assert set(scan_hyperbolic_triples(24)) == WITNESS_FAILURES
    with pytest.raises(ValueError):
        scan_hyperbolic_triples(6)
    # the scan is cubic in dmax, so it refuses inputs past its stated limit
    with pytest.raises(ValueError, match="dmax must be <= 200"):
        scan_hyperbolic_triples(201)


def _hyperbolic(d1, d2, d3):
    return Fraction(1, d1) + Fraction(1, d2) + Fraction(1, d3) < 1


@settings(derandomize=True, deadline=None)
@given(
    triple=st.tuples(*[st.integers(2, 60)] * 3).filter(lambda t: _hyperbolic(*t)),
    strict=st.booleans(),
)
def test_triangle_witness_matches_oracle(triple, strict):
    # unsorted periods: the search is lexicographic in the order given
    assert triangle_witness(*triple, strict=strict) == least_triangle_witness(*triple, strict)


def test_triangle_witness_matches_oracle_below_30():
    count = 0
    for d1 in range(2, 30):
        for d2 in range(d1, 30):
            for d3 in range(d2, 30):
                if not _hyperbolic(d1, d2, d3):
                    continue
                for strict in (True, False):
                    expected = least_triangle_witness(d1, d2, d3, strict)
                    assert triangle_witness(d1, d2, d3, strict=strict) == expected
                    count += 1
    assert count == 8052  # 4026 hyperbolic triples, two modes each


def test_coprime_in_interval_examples():
    assert coprime_in_interval(7, 1, 4, 1, 2, True) == 2
    # 1/4 sits on the lower bound, which only the non-strict query admits
    assert coprime_in_interval(4, 1, 4, 1, 2, True) is None
    assert coprime_in_interval(4, 1, 4, 1, 2, False) == 1
    assert coprime_in_interval(7, 0, 1, 1, 1, True) == 1
    # capped at d // 2: 5/10 is not coprime and 7/10 lies past the cap
    assert coprime_in_interval(10, 2, 5, 1, 1, True) is None
    # no integer a has a/7 = 1/3
    assert coprime_in_interval(7, 1, 3, 1, 3, False) is None


# the case intervals of ``interval_coprime`` and the d at which a/d may equal a bound
_CASE_BOUNDS = {1: (1, 4, 1, 2), 2: (1, 3, 1, 2), 3: (1, 12, 4, 15)}
_BOUNDARY_DS = {1: {2, 4}, 2: {2, 3}, 3: {12}}


def test_coprime_in_interval_matches_interval_oracle():
    # off the boundary d the strict query is the least valid numerator, and
    # the closed form comes back empty exactly when the query does
    for case, bounds in _CASE_BOUNDS.items():
        for d in range(2, 2001):
            if d in _BOUNDARY_DS[case]:
                continue
            least = coprime_in_interval(d, *bounds, strict=True)
            assert least == smallest_interval_numerator(d, case), (case, d)
            assert (interval_coprime(d, case) is None) == (least is None), (case, d)


def test_interval_coprime_examples():
    assert interval_coprime(7, 1) == 3  # (d-1)/2 for odd d
    assert interval_coprime(6, 1) is None
    assert interval_coprime(12, 3) == 1  # boundary 1/12 allowed only at d=12
    assert interval_coprime(2, 1) == 1
    assert interval_coprime(2, 2) == 1
    assert interval_coprime(3, 2) == 1
    assert interval_coprime(6, 3) == 1
    for d in (4, 6, 10):
        assert interval_coprime(d, 2) is None
    for d in (2, 3, 18):
        assert interval_coprime(d, 3) is None
    with pytest.raises(ValueError):
        interval_coprime(1, 1)
    with pytest.raises(ValueError):
        interval_coprime(7, 4)


def test_interval_coprime_checks_its_closed_form(monkeypatch):
    # a closed-form value is returned only once checked: 4/15 is coprime but
    # sits on case 3's upper bound, which only d = 12 may touch
    monkeypatch.setattr(density, "_case3_formula", lambda d: 4)
    assert interval_coprime(15, 3) is None
    assert interval_coprime(13, 3) is None  # 4/13 lies past 4/15
    assert interval_coprime(17, 3) == 4


def test_interval_coprime_agrees_with_search_oracle():
    # existence agrees with the smallest-numerator search for d <= 2000,
    # and every returned value is coprime and inside its interval
    for case in (1, 2, 3):
        for d in range(2, 2001):
            value = interval_coprime(d, case)
            oracle = smallest_interval_numerator(d, case)
            assert (value is None) == (oracle is None), (case, d)
            assert (value is None) == (d in INTERVAL_EXCEPTIONS[case]), (case, d)
            if value is None:
                continue
            assert gcd(value, d) == 1
            q = Fraction(value, d)
            if case == 1:
                assert Fraction(1, 4) < q < Fraction(1, 2) or (
                    q in (Fraction(1, 4), Fraction(1, 2)) and d in (2, 4)
                )
            elif case == 2:
                assert Fraction(1, 3) < q < Fraction(1, 2) or (
                    q in (Fraction(1, 3), Fraction(1, 2)) and d in (2, 3)
                )
            else:
                assert Fraction(1, 12) < q < Fraction(4, 15) or (
                    q == Fraction(1, 12) and d == 12
                )


def test_is_so3_dense_examples():
    verdict = is_so3_dense(FuchsianPresentation(0, (2, 4, 6)))
    assert not verdict.dense and isinstance(verdict.reason, ExceptionalSet)
    verdict = is_so3_dense(FuchsianPresentation(0, (2, 3, 7)))
    assert verdict.dense and isinstance(verdict.reason, TriangleWitness)
    assert verdict.reason.angles == (1, 1, 2)
    verdict = is_so3_dense(FuchsianPresentation(1, (5,)))
    assert verdict.dense and isinstance(verdict.reason, GenusPositive)


def test_exceptional_set_is_exactly_six():
    not_dense = set()
    count = 0
    for g in range(3):
        for m in range(6):
            for periods in itertools.combinations_with_replacement(range(2, 13), m):
                try:
                    p = FuchsianPresentation(g, periods)
                except ValueError:
                    continue
                count += 1
                if not is_so3_dense(p).dense:
                    not_dense.add((g, p.periods))
    assert count > 4000
    assert not_dense == {(0, t) for t in EXCEPTIONAL_SET}


def test_index_two_realizations():
    parents = {
        (2, 5, 5): (2, 4, 5),
        (3, 3, 5): (2, 3, 10),
        (3, 5, 5): (2, 5, 6),
        (5, 5, 5): (2, 5, 10),
        (3, 3, 4): (2, 3, 8),
        (4, 4, 4): (2, 4, 8),
    }
    for triple, parent in parents.items():
        verdict = is_so3_dense(FuchsianPresentation(0, triple))
        assert verdict.dense
        assert isinstance(verdict.reason, IndexTwoRealization)
        assert verdict.reason.parent.periods == parent
        # the parent itself is dense via a direct triangle witness
        parent_verdict = is_so3_dense(verdict.reason.parent)
        assert parent_verdict.dense
        assert isinstance(parent_verdict.reason, TriangleWitness)


def test_344_note_surfaces_its_witness():
    verdict = is_so3_dense(FuchsianPresentation(0, (3, 4, 4)))
    assert not verdict.dense
    assert "(1, 1, 1)" in verdict.note and "octahedral" in verdict.note
    # the other five exceptions have no witness so no such note
    for triple in sorted(WITNESS_FAILURES):
        assert is_so3_dense(FuchsianPresentation(0, triple)).note == ""


def test_inductive_reduction_reasons():
    for periods in ((2, 2, 2, 3), (2, 3, 4, 5), (2,) * 5, (3, 3, 3, 3, 3, 3)):
        p = FuchsianPresentation(0, periods)
        verdict = is_so3_dense(p)
        assert verdict.dense
        reason = verdict.reason
        assert isinstance(reason, InductiveReduction)
        assert reason.auxiliary >= 7
        assert reason.split == (periods[-2], periods[-1], reason.auxiliary)
        assert reason.retained == periods[:-2] + (reason.auxiliary,)
        if (periods[-2], periods[-1]) != (2, 2):
            assert triangle_witness(*reason.split) is not None
    verdict = is_so3_dense(FuchsianPresentation(0, (2, 2, 2, 3)))
    assert verdict.reason.auxiliary == 7
    assert verdict.reason.split == (2, 3, 7)


def test_reduction_auxiliary_is_always_seven():
    # (2, 2, p, q) splits off (p, q) alone, so this pins the auxiliary period
    # of every pair other than (2, 2) with periods up to 60
    for p in range(2, 61):
        for q in range(p, 61):
            if (p, q) == (2, 2):
                continue
            reason = is_so3_dense(FuchsianPresentation(0, (2, 2, p, q))).reason
            assert isinstance(reason, InductiveReduction)
            assert (reason.auxiliary, reason.split) == (7, (p, q, 7)), (p, q)


def test_reduction_without_auxiliary_raises(monkeypatch):
    # an exhausted auxiliary search is an explicit error that survives -O
    monkeypatch.setattr(density, "triangle_witness", lambda *args, **kwargs: None)
    with pytest.raises(ArithmeticError, match="no auxiliary period"):
        is_so3_dense(FuchsianPresentation(0, (2, 3, 4, 5)))


def test_verdict_consistency():
    # dense is false exactly on the ExceptionalSet branch, over every
    # hyperbolic signature with genus <= 2, up to five periods from 2..8
    kinds = set()
    for genus in range(3):
        for m in range(6):
            for periods in itertools.combinations_with_replacement(range(2, 9), m):
                try:
                    p = FuchsianPresentation(genus, periods)
                except NonHyperbolicError:
                    continue
                verdict = is_so3_dense(p)
                kinds.add(type(verdict.reason))
                assert verdict.dense == (not isinstance(verdict.reason, ExceptionalSet))
                assert verdict.dense == (genus > 0 or periods not in EXCEPTIONAL_SET), p
    assert len(kinds) == 5
