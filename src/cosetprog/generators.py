"""Reproducible instance families for tests and experiments.

Every generator is deterministic under (family, parameters, seed); random
draws go through explicit randrange loops so the output depends only on
the seed sequence, not on library sampling internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from random import Random
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError
from .groups import GroupElement, GroupSpec
from .sumsets import GroupSet, doubling, sumset


def _rng_distinct(rng: Random, universe: int, count: int) -> list[int]:
    if count < 0:
        raise DomainError(f"sample size must be at least 0, got {count}")
    if count > universe:
        raise DomainError("cannot sample more elements than the group holds")
    chosen: set[int] = set()
    while len(chosen) < count:
        chosen.add(rng.randrange(universe))
    return sorted(chosen)


def gen_random(spec: GroupSpec, size: int, seed: int) -> GroupSet:
    """A uniformly drawn subset of the given size."""
    rng = Random(seed)
    return GroupSet(spec, np.array(_rng_distinct(rng, spec.cardinality, size),
                                   dtype=np.int64))


def gen_progression(
    spec: GroupSpec,
    base: Sequence[int],
    generators: Sequence[Sequence[int]],
    lengths: Sequence[int],
) -> GroupSet:
    """The progression {base + sum l_j v_j : 0 <= l_j < L_j}."""
    if len(generators) != len(lengths):
        raise DomainError("one length per generator is required")
    if any(l < 1 for l in lengths):
        raise DomainError("progression lengths must be at least 1")
    b = spec.element(base)
    out = GroupSet.from_elements([b])
    for v, length in zip(generators, lengths):
        g = spec.element(v)
        layer = GroupSet.from_elements(
            [spec.element([l * c for c in g.coords]) for l in range(length)]
        )
        out = sumset(out, layer)
    return out


def gen_subgroup(spec: GroupSpec, generators: Sequence[Sequence[int]]) -> GroupSet:
    from .groups import subgroup_closure

    sub = subgroup_closure(spec, [spec.element(g) for g in generators])
    return GroupSet.from_subgroup(sub)


def gen_random_in_progression(
    spec: GroupSpec,
    base: Sequence[int],
    generators: Sequence[Sequence[int]],
    lengths: Sequence[int],
    size: int,
    seed: int,
) -> GroupSet:
    """A random subset of a progression (structured but noisy instances)."""
    ambient = gen_progression(spec, base, generators, lengths)
    rng = Random(seed)
    picks = _rng_distinct(rng, ambient.size, min(size, ambient.size))
    return GroupSet(spec, ambient.indices[np.array(picks, dtype=np.int64)])


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """The product-group family with no small model, plus measured facts.

    ``obstruction`` is the element whose doubling relations force a large
    order in any model group; it is reported as documentation, the lower
    bound itself being a proof rather than a computation.  Both the
    enumerated cardinality and the closed-form candidate are recorded
    since they disagree; enumeration is ground truth.
    """

    set: GroupSet
    spec: GroupSpec
    size: int
    sumset_size: int
    doubling: Fraction
    obstruction: GroupElement
    formula_size: int
    enumerated_size: int


def gen_counterexample(primes: Sequence[int], q: int) -> CounterexampleReport:
    """Tuples over Z/q x prod Z/p_i with at most one nonzero p-coordinate."""
    ps = [int(p) for p in primes]
    if len(set(ps)) != len(ps):
        raise DomainError("primes must be distinct")
    for p in ps + [int(q)]:
        if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            raise DomainError(f"{p} is not prime")
    spec = GroupSpec((int(q), *ps))
    rows: list[tuple[int, ...]] = []
    for x in range(q):
        rows.append((x,) + (0,) * len(ps))
        for i, p in enumerate(ps):
            for v in range(1, p):
                coords = [x] + [0] * len(ps)
                coords[1 + i] = v
                rows.append(tuple(coords))
    a = GroupSet.from_coords(spec, rows)
    dbl = doubling(a)
    obstruction = spec.element((0,) * len(spec.orders[:-1]) + (1,)) if ps else spec.zero()
    formula = q * (sum(ps) - len(ps) - 1) if ps else q
    return CounterexampleReport(
        set=a,
        spec=spec,
        size=a.size,
        sumset_size=dbl.sumset_size,
        doubling=dbl.k,
        obstruction=obstruction,
        formula_size=formula,
        enumerated_size=a.size,
    )


def _primes_in(lo: int, hi: int) -> list[int]:
    sieve = np.ones(max(hi, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(hi)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0] if lo <= p < hi]


@dataclass(frozen=True)
class ExploreReport:
    primes: tuple[int, ...]
    x_max: int
    best_size: int
    witness: tuple[tuple[int, int], ...]  # (prime, multiplier)
    mode: str
    evaluated: int


# the largest choice space searched exhaustively; the greedy descent raises
# ResourceLimitError after 50 times as many trials
_EXHAUSTIVE_CAP = 200_000


def explore_multiple_cover_sumset(p: int, x_max: int, seed: int = 0) -> ExploreReport:
    """Minimize |S + S| over S = {lambda_p * p : p prime in [P, 2P)}.

    Exhaustive when the choice space fits _EXHAUSTIVE_CAP, otherwise a seeded
    greedy descent with restarts; the search mode is recorded.  Purely
    exploratory.
    """
    primes = _primes_in(p, 2 * p)
    if not primes:
        raise DomainError(f"no primes in [{p}, {2 * p})")
    if x_max < 1:
        raise DomainError("multiplier bound must be at least 1")

    def sumset_size(choice: Sequence[int]) -> int:
        s = sorted({lam * pr for lam, pr in zip(choice, primes)})
        return len({u + v for u in s for v in s})

    total = x_max ** len(primes)
    if total <= _EXHAUSTIVE_CAP:
        best = None
        best_choice = None
        count = 0
        for choice in _cartesian(*(range(1, x_max + 1) for _ in primes)):
            count += 1
            size = sumset_size(choice)
            if best is None or size < best:
                best, best_choice = size, choice
        assert best is not None and best_choice is not None
        return ExploreReport(
            tuple(primes), x_max, best,
            tuple(zip(primes, best_choice)), "exhaustive", count,
        )

    rng = Random(seed)
    best = None
    best_choice = None
    count = 0
    for _ in range(20):
        choice = [rng.randrange(1, x_max + 1) for _ in primes]
        improved = True
        while improved:
            improved = False
            for i in range(len(primes)):
                for lam in range(1, x_max + 1):
                    if lam == choice[i]:
                        continue
                    trial = list(choice)
                    trial[i] = lam
                    count += 1
                    if count > 50 * _EXHAUSTIVE_CAP:
                        raise ResourceLimitError("greedy exploration budget exhausted")
                    if sumset_size(trial) < sumset_size(choice):
                        choice = trial
                        improved = True
        size = sumset_size(choice)
        if best is None or size < best:
            best, best_choice = size, tuple(choice)
    assert best is not None and best_choice is not None
    return ExploreReport(
        tuple(primes), x_max, best,
        tuple(zip(primes, best_choice)), "greedy", count,
    )
