"""Seeded instance sets for the certify/verify benchmark.

Every workload is a fixed list of instances drawn from
``cosetprog.generators`` families with fixed generator seeds.  The seed
argument maps each set through a random automorphism of its group (a
random invertible matrix for (Z/n)^k, a unit on each coordinate
otherwise), except where noted.  The elements change with the seed; the
doubling, the spectrum up to relabelling, the dimensions and so the work,
the memory and the failures do not, which keeps runs on different seeds
comparable.  No instance is ever dropped or re-drawn because it fails:
failures are part of what a workload measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from cosetprog import GroupSet, GroupSpec, PipelineConfig
from cosetprog.generators import gen_progression, gen_random, gen_random_in_progression

MODEL_ON = PipelineConfig()
MODEL_OFF = PipelineConfig(skip_model=True)

# The group shapes of the test suite's small zoo (every |G| <= 512).
SMALL_SHAPES = [
    (16,), (27,), (101,), (128,), (256,), (2, 2, 2, 2, 2), (4, 4, 4), (8, 8),
    (2, 4, 8), (3, 9), (6, 6), (5, 25), (12, 12), (512,),
]


@dataclass(frozen=True, eq=False)
class Instance:
    label: str
    a: GroupSet
    config: PipelineConfig


def _unit(spec: GroupSpec, axis: int = 0) -> list[int]:
    e = [0] * spec.rank
    e[axis] = 1
    return e


def _in_interval(order: int, size: int, span: int, seed: int) -> GroupSet:
    spec = GroupSpec((order,))
    return gen_random_in_progression(spec, [0], [[1]], [span], size, seed)


def _in_f2_subspace(rank: int, dim: int, size: int, seed: int) -> GroupSet:
    """A random subset of the span of the first ``dim`` unit vectors."""
    spec = GroupSpec((2,) * rank)
    gens = [_unit(spec, j) for j in range(dim)]
    return gen_random_in_progression(spec, [0] * rank, gens, [2] * dim, size, seed)


def _det(m: list[list[int]]) -> int:
    """Exact integer determinant (Bareiss elimination)."""
    m = [row[:] for row in m]
    k, sign, prev = len(m), 1, 1
    for i in range(k - 1):
        pivot = next((r for r in range(i, k) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def _automorphism(a: GroupSet, rng: Random) -> GroupSet:
    """The image of ``a`` under a random automorphism of its group."""
    orders = a.spec.orders
    n, k = orders[0], len(orders)
    coords = a.coords()
    if k > 1 and all(o == n for o in orders):
        while True:
            m = [[rng.randrange(n) for _ in range(k)] for _ in range(k)]
            if math.gcd(_det(m), n) == 1:
                break
        return GroupSet.from_coords(a.spec, (coords @ np.array(m).T) % n)
    units = []
    for o in orders:
        u = 1 if o <= 2 else 1 + rng.randrange(o - 1)
        while math.gcd(u, o) != 1:
            u = 1 + rng.randrange(o - 1)
        units.append(u)
    return GroupSet.from_coords(a.spec, (coords * units) % orders)


def model_chain(seed: int) -> list[Instance]:
    # The interval is the long spectral chain (find_concentrating_character
    # and one Freiman check per stage); the F_2 set is the quotient chain,
    # where subgroup_decomposition dominates.  subgroup_decomposition scans
    # characters in index order, so an automorphism would change its work:
    # here the seed draws the 40 points of the fixed coordinate subspace
    # instead, and the interval does not depend on it.
    interval = gen_progression(GroupSpec((1024,)), [0], [[1]], [16])
    return [
        Instance("Z/1024 interval [0,16)", interval, MODEL_ON),
        Instance("F_2^12 40 of a 6-dim subspace", _in_f2_subspace(12, 6, 40, seed), MODEL_ON),
    ]


def dense_spectrum(seed: int) -> list[Instance]:
    # Sparse random sets: the model finds no stage, the spectrum above the
    # threshold is large, and the greedy dissociated scan does the work.
    rng = Random(seed)
    return [
        Instance("F_2^11 random |A|=32",
                 _automorphism(gen_random(GroupSpec((2,) * 11), 32, 1), rng), MODEL_ON),
        Instance("Z/32xZ/32 random |A|=32",
                 _automorphism(gen_random(GroupSpec((32, 32)), 32, 2), rng), MODEL_ON),
    ]


def large_cyclic(seed: int) -> list[Instance]:
    # A dense random subset of a short interval has minima dimension d = 7,
    # which makes the |G| 2^d minima table the largest cost.  The Z/2^18
    # set (d = 11) exceeds the minima candidate budget and raises
    # ResourceLimitError after the full-size transform: a known defect that
    # stays in the workload.  Automorphisms keep d, so no seed can make the
    # table larger.
    rng = Random(seed)
    return [
        Instance("Z/2^14 |A|=100 in [0,120)",
                 _automorphism(_in_interval(1 << 14, 100, 120, 0), rng), MODEL_OFF),
        Instance("Z/2^18 |A|=100 in [0,120)",
                 _automorphism(_in_interval(1 << 18, 100, 120, 4), rng), MODEL_OFF),
    ]


def small_batch(seed: int) -> list[Instance]:
    # A full grid of shape x family x model on/off, repeated.  Sizes follow
    # the test suite's campaign (1 to 64, capped by |G|), so singletons and
    # dense sets both occur.  Sets drawn afresh per seed would move the
    # peak memory with the largest minima table among them.
    fixed = Random(0)
    rng = Random(seed)
    out = []
    for rep in range(2):
        for orders in SMALL_SHAPES:
            spec = GroupSpec(orders)
            for family in ("random", "interval", "random-in-interval"):
                for config in (MODEL_ON, MODEL_OFF):
                    size = 1 + fixed.randrange(min(spec.cardinality, 64))
                    draw = fixed.randrange(1 << 30)
                    e0 = _unit(spec)
                    if family == "random":
                        a = gen_random(spec, size, draw)
                    elif family == "interval":
                        length = max(2, min(size, spec.orders[0]))
                        a = gen_progression(spec, [0] * spec.rank, [e0], [length])
                    else:
                        span = min(spec.orders[0], max(4, 2 * size))
                        a = gen_random_in_progression(
                            spec, [0] * spec.rank, [e0], [span], size, draw
                        )
                    model = "model" if config is MODEL_ON else "skip-model"
                    out.append(Instance(f"{spec} {family} |A|={a.size} {model}",
                                        _automorphism(a, rng), config))
    return out


WORKLOADS = {
    "small-batch": small_batch,
    "model-chain": model_chain,
    "dense-spectrum": dense_spectrum,
    "large-cyclic": large_cyclic,
}
