import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import ALTERNATING_ORDERS, APPENDIX_DERIVED
from oracles import closure_order, identity_perm, perm_inverse, sympy_group
from repvar.eigen import (
    DegreeMismatchError,
    Permutation,
    perm_compose,
    perm_from_cycles,
    perm_parity,
)
from repvar.permgrp import (
    APPENDIX_ENTRIES,
    AppendixEntry,
    StabilizerChain,
    entry_by_label,
    entry_to_text,
    generates_alternating,
    group_order,
    parse_entry_text,
    verify_appendix_entry,
)


def test_group_order_examples():
    a = perm_from_cycles("(1 2 3)", 4)
    b = perm_from_cycles("(1 2)(3 4)", 4)
    assert group_order([a, b]) == 12
    assert closure_order([a, b]) == 12
    assert group_order([identity_perm(5)]) == 1
    entry = entry_by_label("2,4,6")
    assert group_order(entry.generators[:2]) == factorial(14) // 2


def test_group_order_matches_closure_on_random_groups():
    rng = random.Random(1729)
    for _ in range(60):
        degree = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(1, degree + 1))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        assert group_order(gens) == closure_order(gens)


def test_group_order_invariances():
    entry = entry_by_label("2,6,10")
    gens = list(entry.generators)
    base = group_order(gens)
    for perm in itertools.permutations(gens):
        assert group_order(list(perm)) == base
    conjugator = perm_from_cycles("(1 5 9)(2 12)(3 7)", 12)
    inv = perm_inverse(conjugator)
    conjugated = [perm_compose(perm_compose(conjugator, g), inv) for g in gens]
    assert group_order(conjugated) == base


def test_symmetric_and_alternating_orders():
    for n in range(3, 9):
        transposition = perm_from_cycles("(1 2)", n)
        cycle = Permutation(tuple(list(range(2, n + 1)) + [1]))
        assert group_order([transposition, cycle]) == factorial(n)


def test_generates_alternating():
    assert generates_alternating(list(entry_by_label("3,4,4").generators), 14)
    assert generates_alternating(list(entry_by_label("4,6,12").generators), 12)
    assert not generates_alternating([perm_from_cycles("(1 2 3)", 4)], 4)
    # odd generators can never generate an alternating group
    assert not generates_alternating([perm_from_cycles("(1 2)", 4)], 4)
    # A_1 and A_2 are trivial, so the identity generates them
    assert generates_alternating([Permutation((1,))], 1)
    assert generates_alternating([identity_perm(2)], 2)
    with pytest.raises(DegreeMismatchError):
        generates_alternating([identity_perm(5)], 4)


def _random_perm(rng, n, even=None):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    x = Permutation(tuple(images))
    if even is not None and (perm_parity(x) == "even") != even:
        images[0], images[1] = images[1], images[0]
        x = Permutation(tuple(images))
    return x


def _block_pair(rng, n):
    """Two permutations preserving a block system (composite n) or a split
    of the points into two orbits (prime n), and a 3-cycle breaking it."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    sizes = [b for b in range(2, n) if n % b == 0]
    if sizes:
        b = rng.choice(sizes)
        parts = [points[i:i + b] for i in range(0, n, b)]
    else:
        a = rng.randint(2, n - 2)
        parts = [points[:a], points[a:]]
    gens = []
    for _ in range(2):
        targets = parts[:]
        if sizes:
            rng.shuffle(targets)
        images = [0] * n
        for src, dst in zip(parts, targets):
            dst = rng.sample(dst, len(dst))
            for p, q in zip(src, dst):
                images[p - 1] = q
        gens.append(Permutation(tuple(images)))
    (x, y), z = parts[0][:2], parts[1][0]
    return gens, perm_from_cycles(f"({x} {y} {z})", n)


def _queries(rng, gens, outsider):
    """Six member words in ``gens``, then ``outsider`` times each."""
    members = []
    for _ in range(6):
        x = identity_perm(gens[0].degree)
        for _ in range(rng.randint(4, 16)):
            x = perm_compose(rng.choice(gens), x)
        members.append(x)
    return members + [perm_compose(outsider, x) for x in members]


def _check_against_sympy(rng, gens, outsider):
    """Compare order, generation and membership with sympy on six member
    words and on ``outsider`` times each; return the order and membership."""
    n = gens[0].degree
    queries = _queries(rng, gens, outsider)
    order, membership = sympy_group(gens, queries)
    assert membership[:6] == [True] * 6
    assert group_order(gens) == order
    chain = StabilizerChain(gens)
    assert [chain.contains(q) for q in queries] == membership
    even = all(perm_parity(g) == "even" for g in gens)
    assert generates_alternating(gens, n) is (even and order == factorial(n) // 2)
    return order, membership


def test_chain_matches_sympy_oracle():
    # even pairs stop at n!/2, pairs with an odd generator at n!, and
    # block-preserving pairs never reach the ceiling and close in full;
    # random pairs are drawn until one reaches its ceiling, and every pair
    # drawn on the way is checked too
    rng = random.Random(2012)
    for n in range(8, 19):
        transposition = perm_from_cycles("(1 2)", n)
        for even, ceiling in ((True, factorial(n) // 2), (False, factorial(n))):
            for _ in range(10):
                gens = [_random_perm(rng, n, even), _random_perm(rng, n, True if even else None)]
                order, membership = _check_against_sympy(rng, gens, transposition)
                if order == ceiling:
                    # odd words are non-members of A_n and members of S_n
                    assert membership[6:] == [not even] * 6
                    break
            else:
                raise AssertionError(f"no random pair of degree {n} reached {ceiling}")
        gens, breaker = _block_pair(rng, n)
        order, membership = _check_against_sympy(rng, gens, breaker)
        assert order < factorial(n) // 2 and membership[6:] == [False] * 6


def _wreath(rng, k):
    """S_2 wr S_k on 2k points, relabelled by a seeded permutation c, and
    c (1 2 3) c^-1, which breaks its blocks."""
    n = 2 * k
    gens = [
        perm_from_cycles("(1 2)", n),
        perm_from_cycles("(1 3)(2 4)", n),
        Permutation(tuple([*range(3, n + 1), 1, 2])),
    ]
    c = _random_perm(rng, n)
    conj = [perm_compose(perm_compose(c, g), perm_inverse(c)) for g in gens]
    return conj, perm_compose(perm_compose(c, perm_from_cycles("(1 2 3)", n)), perm_inverse(c))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["even", "block", "wreath"]),
    n=st.integers(4, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_warm_start_agrees_with_closure_only(kind, n, seed):
    # the warm start may change the base and strong generators, never the
    # group: order and membership equal sympy's and those of a chain built
    # by the Schreier test alone
    rng = random.Random(seed)
    if kind == "even":
        gens = [_random_perm(rng, n, True), _random_perm(rng, n, True)]
        outsider = perm_from_cycles("(1 2)", n)
    elif kind == "block":
        gens, outsider = _block_pair(rng, n)
    else:
        gens, outsider = _wreath(rng, n // 2)
    queries = _queries(rng, gens, outsider)
    order, membership = sympy_group(gens, queries)
    assert membership[:6] == [True] * 6
    warm = StabilizerChain(gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StabilizerChain, "_warm_start", lambda self: None)
        closed = StabilizerChain(gens)
    for chain in (warm, closed):
        assert chain.order() == order
        assert [chain.contains(q) for q in queries] == membership


def test_chain_leaves_the_global_random_state_alone():
    state = random.getstate()
    for entry in APPENDIX_ENTRIES:
        StabilizerChain(list(entry.generators))
    assert random.getstate() == state


def test_stabilizer_chain_structure():
    entry = entry_by_label("3,6,6")
    chain = StabilizerChain(list(entry.generators))
    assert chain.contains(entry.generators[2])
    assert not chain.contains(perm_from_cycles("(1 2)", 12))
    # a non-generating group: it preserves the blocks {1,2}, {3,4}, ..., {11,12}
    blocks = [
        perm_from_cycles("(1 3 5 7 9 11)(2 4 6 8 10 12)", 12),
        perm_from_cycles("(1 2)(3 5)(4 6)", 12),
    ]
    # degree 18: a block-preserving pair closes below the ceiling, an even
    # pair stops at 18!/2
    rng = random.Random(18)
    blocks18, _ = _block_pair(rng, 18)
    even18 = [_random_perm(rng, 18, True), _random_perm(rng, 18, True)]
    groups = [(list(e.generators), ALTERNATING_ORDERS[e.degree]) for e in APPENDIX_ENTRIES]
    groups += [(g, sympy_group(g, [])[0]) for g in (blocks, blocks18)]
    groups.append((even18, factorial(18) // 2))
    # (3 4) fixes the first base point 1, so it is placed in S^(0) and S^(1)
    groups.append(([perm_from_cycles("(1 2)", 4), perm_from_cycles("(3 4)", 4)], 4))
    # a seed listed twice is stored once
    x = perm_from_cycles("(1 2 3)", 4)
    groups.append(([x, x], 3))
    for gens, expected in groups:
        chain = StabilizerChain(gens)
        assert chain.order() == expected
        # construction is deterministic: a second build is identical
        again = StabilizerChain(gens)
        assert again.base == chain.base
        assert again.level_generators(0) == chain.level_generators(0)
        assert again.transversals == chain.transversals
        # the base is 1-based and starts at the least point moved by gens[0]
        moved = [p for p in range(1, chain.degree + 1) if gens[0].images[p - 1] != p]
        assert chain.base[0] == min(moved)
        assert all(1 <= b <= chain.degree for b in chain.base)
        assert len(set(chain.base)) == len(chain.base) == len(chain.transversals)
        # order is the product of basic orbit sizes, with valid representatives
        product = 1
        for level, (point, transversal) in enumerate(zip(chain.base, chain.transversals)):
            product *= len(transversal)
            assert transversal[point].is_identity()
            for target, rep in transversal.items():
                assert isinstance(rep, Permutation)
                assert rep.images[point - 1] == target
                assert all(rep.images[b - 1] == b for b in chain.base[:level])
        assert product == chain.order()
        # one placement rule: S^(i) is exactly the strong generators fixing
        # base[:i], in the order of S^(0), and no generator is stored twice
        strong = chain.level_generators(0)
        assert len(set(strong)) == len(strong)
        for level in range(len(chain.base) + 1):
            fixing = [g for g in strong if all(g.images[b - 1] == b for b in chain.base[:level])]
            assert chain.level_generators(level) == fixing
        assert all(isinstance(g, Permutation) for g in strong)
        assert group_order(strong) == chain.order()
        assert all(chain.contains(g) for g in strong)
    assert not StabilizerChain(blocks).contains(perm_from_cycles("(1 2 3)", 12))
    assert StabilizerChain([x, x]).level_generators(0) == [x]


def test_level_generators_boundary():
    chain = StabilizerChain(list(entry_by_label("4,6,12").generators))
    assert chain.level_generators(len(chain.base)) == []
    assert chain.level_generators(len(chain.base) + 5) == []
    with pytest.raises(ValueError):
        chain.level_generators(-1)
    with pytest.raises(DegreeMismatchError, match="degree 13 != 12"):
        chain.contains(identity_perm(13))
    with pytest.raises(ValueError, match="at least one generator"):
        StabilizerChain([])
    with pytest.raises(DegreeMismatchError, match="share a degree"):
        StabilizerChain([identity_perm(12), identity_perm(13)])


def test_all_entries_verify():
    assert len(APPENDIX_ENTRIES) == 6
    for entry in APPENDIX_ENTRIES:
        report = verify_appendix_entry(entry)
        derived = APPENDIX_DERIVED[entry.label]
        assert report.ok, entry.label
        assert report.product_is_identity
        assert all(report.order_matches)
        assert all(report.all_even)
        assert report.generates_alternating
        assert report.z1_dim == derived["z1"]
        assert report.margin == derived["margin"]
        assert report.margin_positive
        assert entry.degree == derived["degree"]


def test_entry_group_orders_exact():
    for entry in APPENDIX_ENTRIES:
        assert group_order(list(entry.generators)) == ALTERNATING_ORDERS[entry.degree]


def test_broken_entry_reports_false_flags():
    entry = entry_by_label("2,6,6")
    broken = AppendixEntry(
        entry.periods, entry.degree, (*entry.generators[:2], identity_perm(entry.degree)),
    )
    report = verify_appendix_entry(broken)
    assert not report.product_is_identity
    assert report.order_matches == (True, True, False)
    assert not report.ok
    # degrees 1 and 2 have dim SO(degree - 1) = 0 and a trivial A_n; the
    # report still comes back, with the failure in its flags
    for degree in (1, 2):
        entry = parse_entry_text(f"gamma=1,1,1;degree={degree}\n()\n()\n()\n")
        report = verify_appendix_entry(entry)
        assert (report.so_dim, report.z1_dim, report.margin) == (0, 0, 0)
        assert report.generates_alternating and not report.margin_positive
        assert not report.ok


def test_appendix_entry_checks_its_shape():
    # a wrong shape is refused at construction, so every entry that exists
    # can be verified into a report of flags
    entry = APPENDIX_ENTRIES[0]
    with pytest.raises(DegreeMismatchError, match="three generators of degree 12"):
        AppendixEntry(entry.periods, 12, entry.generators)
    mixed = (*entry.generators[:2], identity_perm(12))
    with pytest.raises(DegreeMismatchError, match="three generators of degree 14"):
        AppendixEntry(entry.periods, 14, mixed)
    with pytest.raises(DegreeMismatchError):
        AppendixEntry(entry.periods, 14, entry.generators[:2])
    with pytest.raises(ValueError, match="exactly three periods"):
        AppendixEntry(entry.periods[:2], 14, entry.generators)


def test_entry_serialization_round_trip():
    for entry in APPENDIX_ENTRIES:
        text = entry_to_text(entry)
        parsed = parse_entry_text(text)
        assert parsed == entry
        assert text.splitlines()[0] == (
            "gamma=%d,%d,%d;degree=%d" % (*entry.periods, entry.degree)
        )
    with pytest.raises(ValueError):
        parse_entry_text("gamma=2,4,6;degree=14\n(1 2)\n")
    # a header that does not split into gamma=...;degree=...
    for header in ("degree=14", "gamma=2,4,6;degree=14;x"):
        with pytest.raises(ValueError, match="bad header"):
            parse_entry_text(header + "\n(1 2)\n(1 2)\n(1 2)\n")
    with pytest.raises(ValueError, match="exactly three periods"):
        parse_entry_text("gamma=2,4;degree=14\n(1 2)\n(1 2)\n(1 2)\n")


def test_parse_entry_text_reads_the_header_degree():
    # the printed (2,4,6) lines move all of 1..14; degree 16 fixes 15 and 16
    lines = entry_to_text(entry_by_label("2,4,6")).splitlines()[1:]
    entry = parse_entry_text("\n".join(["gamma=2,4,6;degree=16", *lines]))
    assert entry.degree == 16
    for x in entry.generators:
        assert x.degree == 16 and x.images[14:] == (15, 16)
    for entry in APPENDIX_ENTRIES:
        assert {x.degree for x in entry.generators} == {entry.degree}


def test_entry_lookup():
    assert entry_by_label("2,4,6").degree == 14
    with pytest.raises(KeyError):
        entry_by_label("2,3,7")
