"""Best-of-3 stabilizer-chain build times on fixed inputs, as one JSON object.

Run from the root of a repvar checkout:

    PYTHONPATH=src python3 tools/chain_times.py

Inputs: the six appendix triples; S_2 wr S_k (blocks {1,2}, {3,4}, ...,
generated by (1 2), (1 3)(2 4) and the block k-cycle) at degrees 18, 24, 32
and 40, which close below the parity ceiling; one random pair of even
permutations at degrees 20, 24 and 32; and one block-preserving pair at
degrees 17, 18 and 20, which preserves a split of the points into two orbits
(prime degree) or a block system (composite degree) and so closes below the
ceiling by the full Schreier test.  The pairs at 17 and 18 happen to be
intransitive, so they skip the warm start; the one at 20 is transitive and
runs it.  Random inputs are drawn from ``random.Random(degree)``.  Two more
families close below the ceiling and are the slowest chains a triple file
may ask for: the point stabilizer S_(n-1), generated by (1 2) and
(1 2 ... n-1), and S_(n/2) wr S_2, generated by (1 2), (1 2 ... n/2) and
the block swap (1 n/2+1)(2 n/2+2)...; each at ``MAX_TRIPLE_DEGREE``, the
largest header degree a triple file may have, and 4 above it.  Each entry is
[milliseconds, group order, number of strong generators].
"""

from __future__ import annotations

import json
import platform
import random
from time import perf_counter

from repvar.eigen import Permutation, perm_parity
from repvar.permgrp import APPENDIX_ENTRIES, MAX_TRIPLE_DEGREE, StabilizerChain

REPS = 3


def best_of(gens: list[Permutation]) -> list:
    times = []
    for _ in range(REPS):
        start = perf_counter()
        chain = StabilizerChain(gens)
        times.append(perf_counter() - start)
    return [round(min(times) * 1e3, 2), chain.order(), len(chain.level_generators(0))]


def wreath(k: int) -> list[Permutation]:
    n = 2 * k
    swap, exchange = [2, 1, *range(3, n + 1)], [3, 4, 1, 2, *range(5, n + 1)]
    cycle = [*range(3, n + 1), 1, 2]
    return [Permutation(tuple(images)) for images in (swap, exchange, cycle)]


def point_stabilizer(n: int) -> list[Permutation]:
    transposition = [2, 1, *range(3, n + 1)]
    cycle = [*range(2, n), 1, n]
    return [Permutation(tuple(images)) for images in (transposition, cycle)]


def wreath_sk_s2(n: int) -> list[Permutation]:
    k = n // 2
    transposition = [2, 1, *range(3, n + 1)]
    cycle = [*range(2, k + 1), 1, *range(k + 1, n + 1)]
    swap = [*range(k + 1, n + 1), *range(1, k + 1)]
    return [Permutation(tuple(images)) for images in (transposition, cycle, swap)]


def even_pair(n: int) -> list[Permutation]:
    rng = random.Random(n)
    pair = []
    for _ in range(2):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        if perm_parity(Permutation(tuple(images))) == "odd":
            images[0], images[1] = images[1], images[0]
        pair.append(Permutation(tuple(images)))
    return pair


def block_pair(n: int) -> list[Permutation]:
    rng = random.Random(n)
    points = list(range(1, n + 1))
    rng.shuffle(points)
    sizes = [b for b in range(2, n) if n % b == 0]
    if sizes:
        b = rng.choice(sizes)
        parts = [points[i:i + b] for i in range(0, n, b)]
    else:
        a = rng.randint(2, n - 2)
        parts = [points[:a], points[a:]]
    pair = []
    for _ in range(2):
        targets = parts[:]
        if sizes:
            rng.shuffle(targets)
        images = [0] * n
        for src, dst in zip(parts, targets):
            for p, q in zip(src, rng.sample(dst, len(dst))):
                images[p - 1] = q
        pair.append(Permutation(tuple(images)))
    return pair


if __name__ == "__main__":
    print(json.dumps({
        "python": platform.python_version(),
        "triples": {e.label: best_of(list(e.generators)) for e in APPENDIX_ENTRIES},
        "wreath_s2_sk": {str(n): best_of(wreath(n // 2)) for n in (18, 24, 32, 40)},
        "even_pair": {str(n): best_of(even_pair(n)) for n in (20, 24, 32)},
        "block_pair": {str(n): best_of(block_pair(n)) for n in (17, 18, 20)},
        **{
            name: {str(n): best_of(family(n)) for n in (MAX_TRIPLE_DEGREE, MAX_TRIPLE_DEGREE + 4)}
            for name, family in (("point_stabilizer", point_stabilizer), ("wreath_sk_s2", wreath_sk_s2))
        },
    }))
