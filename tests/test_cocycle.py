import random
import time
from fractions import Fraction
from math import prod

import pytest

from fixtures import APPENDIX_DERIVED
from repvar.cli import main
from repvar.cocycle import (
    MismatchedPeriodsError,
    NonIntegerResultError,
    OrderMismatchError,
    density_criterion_compare,
    exceptional_inequality,
    upper_bound,
    z1_dim,
    z1_dim_alternating_so,
    z1_dim_principal,
)
from repvar.eigen import balanced_class
from repvar.liedata import RootSystem, dimension, parse_root_system
from repvar.permgrp import APPENDIX_ENTRIES
from repvar.presentation import FuchsianPresentation, euler_characteristic
from repvar.report import COLUMNS

EXCEPTIONAL_AND_A1 = ("A1", "E6", "E7", "E8", "F4", "G2")


def _rs(label):
    return parse_root_system(label)


def test_z1_dim_examples():
    # principal E8 data on the (2,3,7) group
    p = FuchsianPresentation(0, (2, 3, 7))
    assert z1_dim(p, ((2, 120), (3, 80), (7, 36)), 248, 0) == 260
    # trivial one-dimensional coefficients on a genus-3 surface group
    surface = FuchsianPresentation(3, ())
    assert z1_dim(surface, (), 1, 1) == 6
    # principal F4 data on (2,2,2,3)
    p = FuchsianPresentation(0, (2, 2, 2, 3))
    assert z1_dim(p, ((2, 24), (2, 24), (2, 24), (3, 16)), 52) == 68


def test_z1_dim_guards_the_euler_characteristic(monkeypatch):
    # the two lines agree for every fix data, so only a wrong chi trips the
    # check: off by 1/7 the rational line is fractional, off by 1 it differs
    p = FuchsianPresentation(0, (2, 3, 7))
    torsion = ((2, 120), (3, 80), (7, 36))
    for offset, message in ((Fraction(1, 7), "not an integer"), (1, "disagree")):
        monkeypatch.setattr(
            FuchsianPresentation, "euler_characteristic",
            lambda self, offset=offset: euler_characteristic(self.genus, self.periods) + offset,
        )
        with pytest.raises(NonIntegerResultError, match=message):
            z1_dim(p, torsion, 248)


def test_each_presentation_evaluates_chi_once(monkeypatch):
    # validation computes chi and the presentation keeps it: no formula and no
    # CLI call evaluates it again
    calls = []

    def counted(genus, periods):
        calls.append((genus, periods))
        return euler_characteristic(genus, periods)

    monkeypatch.setattr("repvar.presentation.euler_characteristic", counted)
    for genus, periods in ((0, (2, 3, 7)), (2, (3, 3))):
        p = FuchsianPresentation(genus, periods)
        for label in COLUMNS:
            z1_dim_principal(p, _rs(label))
            exceptional_inequality(p, _rs(label))
        upper_bound(p, 14, 2)
        z1_dim_alternating_so(p, [balanced_class(21, d) for d in p.periods], 21)
        assert calls == [(genus, periods)]
        calls.clear()
    for argv in (["validate", "g=0;d=2,3,7"], ["upper-bound", "g=2;d=3,3", "G2"]):
        assert main(argv) == 0
        assert len(calls) == 1, argv[0]
        calls.clear()


def test_z1_dim_rejects_mismatched_periods():
    p = FuchsianPresentation(0, (2, 3, 7))
    with pytest.raises(MismatchedPeriodsError):
        z1_dim(p, ((2, 1), (3, 1)), 5)
    with pytest.raises(MismatchedPeriodsError):
        z1_dim(p, ((2, 1), (3, 1), (8, 1)), 5)


def test_torsion_data_validation():
    p = FuchsianPresentation(1, (2,))
    with pytest.raises(ValueError, match="fixed dimension 6 outside 0..5"):
        z1_dim(p, ((2, 6),), 5)
    with pytest.raises(ValueError, match="fixed dimension -1 outside 0..5"):
        z1_dim(p, ((2, -1),), 5)
    # a period below 2 is never one of the presentation's
    with pytest.raises(MismatchedPeriodsError, match=r"torsion periods \[1\]"):
        z1_dim(p, ((1, 0),), 5)
    for dim_v, dual in ((5, -1), (-1, 0)):
        with pytest.raises(ValueError, match="dimensions must be non-negative"):
            z1_dim(FuchsianPresentation(2, ()), (), dim_v, dual)


def test_z1_dim_principal_examples():
    assert z1_dim_principal(FuchsianPresentation(0, (2, 4, 5)), _rs("G2")) == 14
    assert z1_dim_principal(FuchsianPresentation(0, (3, 3, 4)), _rs("E8")) == 276
    assert z1_dim_principal(FuchsianPresentation(0, (2, 3, 7)), _rs("A1")) == 3
    assert z1_dim_principal(FuchsianPresentation(0, (2, 3, 7)), _rs("E8")) == 260


def test_z1_dim_alternating_examples():
    entry = APPENDIX_ENTRIES[0]  # (2,4,6) in degree 14
    p = FuchsianPresentation(0, entry.periods)
    z1 = z1_dim_alternating_so(p, [x.cycle_type() for x in entry.generators], 14)
    assert z1 == APPENDIX_DERIVED["2,4,6"]["z1"] == 90
    assert z1 > 78  # strictly bigger than dim SO(13)

    # order-2 balanced class on 6 points for a (g=1; 2) group
    p = FuchsianPresentation(1, (2,))
    z1 = z1_dim_alternating_so(p, [balanced_class(6, 2)], 6)
    assert z1 == 16
    assert z1 >= (2 * 1 - 1) * 10


def test_z1_dim_alternating_torsion_free_action():
    # all fixes equal to dim V collapses to (2g-1) dim V; identity-like data
    p = FuchsianPresentation(2, ())
    assert z1_dim_alternating_so(p, [], 8) == 3 * 21


def test_z1_dim_alternating_order_mismatch():
    p = FuchsianPresentation(0, (2, 4, 6))
    types = [x.cycle_type() for x in APPENDIX_ENTRIES[0].generators]
    with pytest.raises(OrderMismatchError):
        z1_dim_alternating_so(p, [*types[:2], (1,) * 14], 14)
    with pytest.raises(MismatchedPeriodsError):
        z1_dim_alternating_so(p, types[:2], 14)
    with pytest.raises(MismatchedPeriodsError):
        # middle cycle type only fills 13 of the 14 points
        z1_dim_alternating_so(p, [(2,) * 7, (4, 4, 4, 1), (6, 6, 1, 1)], 14)
    with pytest.raises(MismatchedPeriodsError):
        # a degree-12 cycle type among degree-14 ones
        z1_dim_alternating_so(p, [*types[:2], APPENDIX_ENTRIES[2].generators[1].cycle_type()], 14)
    with pytest.raises(ValueError, match="degree >= 6"):
        z1_dim_alternating_so(FuchsianPresentation(0, (2, 3, 7)), [(2, 2, 1), (3, 1, 1), (5,)], 5)
    # a length below 1 that fills the points and passes the order check
    with pytest.raises(ValueError, match="non-empty list of positive lengths"):
        z1_dim_alternating_so(
            FuchsianPresentation(0, (2, 3, 15)), [(2,) * 7, (3, 3, 3, 3, 1, 1), (-1, 15)], 14
        )


def test_z1_dim_alternating_checks_orders_before_profiles(monkeypatch):
    # a 61-point element of order 5*7*9*11*13*16 = 720,720 where a period 7 is
    # due: the orders are rejected before any fixed dimension is counted
    def no_fix(lengths):
        raise AssertionError(f"fixed dimension counted for {lengths}")

    monkeypatch.setattr("repvar.cocycle.exterior_square_fixed_dim", no_fix)
    p = FuchsianPresentation(0, (2, 3, 7))
    types = [(2,) * 30 + (1,), (3,) * 20 + (1,), (16, 13, 11, 9, 7, 5)]
    with pytest.raises(OrderMismatchError):
        z1_dim_alternating_so(p, types, 61)


def test_z1_dim_alternating_costs_the_degree_not_the_order():
    # third generators with cycles 2, 3, 5, ..., 19 (order 9,699,690) on 77
    # points and 2, 3, 5, ..., 29 (order 6,469,693,230) on 129 points
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    for degree, count, expected in ((77, 8, 3289), (129, 10, 9419)):
        third = primes[:count]
        types = [(2,) * (degree // 2) + (1,), (3,) * (degree // 3) + (1,) * (degree % 3), third]
        p = FuchsianPresentation(0, (2, 3, prod(third)))
        start = time.perf_counter()
        assert z1_dim_alternating_so(p, types, degree) == expected
        assert time.perf_counter() - start < 0.5


def test_both_formula_lines_agree_on_random_data():
    rng = random.Random(20260810)
    count = 0
    while count < 1000:
        g = rng.randint(0, 3)
        m = rng.randint(0, 6)
        periods = tuple(sorted(rng.randint(2, 24) for _ in range(m)))
        try:
            p = FuchsianPresentation(g, periods)
        except ValueError:
            continue
        dim_v = rng.randint(1, 200)
        dual = rng.randint(0, 5)
        torsion = tuple((d, rng.randint(0, dim_v)) for d in p.periods)
        value = z1_dim(p, torsion, dim_v, dual)
        # recompute the two lines independently of the implementation
        first = (2 * g - 1) * dim_v + dual + sum(dim_v - f for _, f in torsion)
        chi = p.euler_characteristic()
        second = (1 - chi) * dim_v + dual + sum(
            Fraction(dim_v, d) - f for d, f in torsion
        )
        assert first == second == value
        count += 1


def test_upper_bound_examples():
    p237 = FuchsianPresentation(0, (2, 3, 7))
    assert upper_bound(p237, 14, 2) == Fraction(85, 3)
    assert upper_bound(FuchsianPresentation(2, ()), 3, 1) == 14
    assert upper_bound(p237, 3, 1) == Fraction(129, 42) + 4 + Fraction(9, 2)
    for dim, rank in ((0, 1), (3, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            upper_bound(p237, dim, rank)


def test_upper_bound_dominates_principal_values():
    systems = [RootSystem("A", n) for n in range(1, 13)]
    systems += [RootSystem("B", n) for n in range(2, 13)]
    systems += [RootSystem("C", n) for n in range(2, 13)]
    systems += [RootSystem("D", n) for n in range(3, 13)]
    systems += [RootSystem(f, r) for f, r in
                (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
    rng = random.Random(97)
    presentations = [FuchsianPresentation(0, (2, 3, 7)),
                     FuchsianPresentation(0, (2,) * 5),
                     FuchsianPresentation(1, (24,)),
                     FuchsianPresentation(3, ())]
    while len(presentations) < 60:
        g = rng.randint(0, 3)
        m = rng.randint(0, 6)
        try:
            presentations.append(
                FuchsianPresentation(g, tuple(rng.randint(2, 24) for _ in range(m)))
            )
        except ValueError:
            continue
    for p in presentations:
        for rs in systems:
            assert z1_dim_principal(p, rs) <= upper_bound(p, dimension(rs), rs.rank)


def test_density_criterion_compare():
    assert density_criterion_compare(260, 248, 3, 3)  # E8 over SO(3) for (2,3,7)
    assert not density_criterion_compare(14, 14, 3, 3)  # G2 fails for (2,4,5)
    assert not density_criterion_compare(10, 7, 6, 3)  # equal margins


def test_exceptional_inequality_examples():
    assert not exceptional_inequality(FuchsianPresentation(0, (2, 4, 5)), _rs("G2"))
    assert exceptional_inequality(FuchsianPresentation(0, (2,) * 5), _rs("E7"))
    for label in ("E6", "E7", "E8", "F4", "G2"):
        assert exceptional_inequality(FuchsianPresentation(1, (3,)), _rs(label))
        assert exceptional_inequality(FuchsianPresentation(2, ()), _rs(label))


def test_exceptional_inequality_is_the_so3_comparison():
    # the rewritten form agrees with the direct comparison against A1 data
    # on every instance in the grid, for all six columns
    presentations = _grid_presentations()
    for p in presentations:
        t_a1 = z1_dim_principal(p, _rs("A1"))
        for label in EXCEPTIONAL_AND_A1:
            rs = _rs(label)
            direct = density_criterion_compare(
                z1_dim_principal(p, rs), dimension(rs), t_a1, 3
            )
            assert exceptional_inequality(p, rs) == direct, (p, label)


def test_exceptional_inequality_vs_plain_positivity():
    # for the five exceptional columns the inequality is equivalent to
    # t_G - dim G > 0 across the whole grid; for A1 the two sides differ
    # whenever t_SO(3) - 3 = 6g - 6 + 2m is nonzero, i.e. off the triangle
    # case, so the equivalence is asserted only where it is true
    for p in _grid_presentations():
        for label in ("E6", "E7", "E8", "F4", "G2"):
            rs = _rs(label)
            positive = z1_dim_principal(p, rs) - dimension(rs) > 0
            assert exceptional_inequality(p, rs) == positive, (p, label)
        a1_positive = z1_dim_principal(p, _rs("A1")) - 3 > 0
        if p.genus == 0 and p.m == 3:
            assert exceptional_inequality(p, _rs("A1")) == a1_positive
        else:
            assert not exceptional_inequality(p, _rs("A1"))
            assert a1_positive == (6 * p.genus - 6 + 2 * p.m > 0)


def _grid_presentations():
    out = []
    for g in range(4):
        for m in range(7):
            for periods in _period_samples(m):
                try:
                    out.append(FuchsianPresentation(g, periods))
                except ValueError:
                    continue
    return out


def _period_samples(m):
    # deterministic small cross-section of period vectors with d <= 12
    if m == 0:
        return [()]
    rng = random.Random(1000 + m)
    samples = {tuple([2] * m), tuple([12] * m), tuple([2] * (m - 1) + [3])}
    for _ in range(40):
        samples.add(tuple(sorted(rng.randint(2, 12) for _ in range(m))))
    return sorted(samples)
