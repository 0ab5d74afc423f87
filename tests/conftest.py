"""Shared instance builders and independent brute-force oracles.

The oracles here recompute expected values by direct enumeration and are
kept free of the library code paths they are used to check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from cosetprog import GroupSet, GroupSpec
from cosetprog.generators import (
    gen_progression,
    gen_random,
    gen_random_in_progression,
    gen_subgroup,
)

SMALL_SPECS = [
    GroupSpec((16,)),
    GroupSpec((27,)),
    GroupSpec((101,)),
    GroupSpec((128,)),
    GroupSpec((256,)),
    GroupSpec((2, 2, 2, 2, 2)),
    GroupSpec((4, 4, 4)),
    GroupSpec((8, 8)),
    GroupSpec((2, 4, 8)),
    GroupSpec((3, 9)),
    GroupSpec((6, 6)),
    GroupSpec((5, 25)),
    GroupSpec((12, 12)),
    GroupSpec((512,)),
]


def structured_sets(spec: GroupSpec, seed: int) -> list[GroupSet]:
    """A deterministic mixed bag: intervals, subgroup-like sets, noise."""
    rng = Random(seed)
    card = spec.cardinality
    out = []
    n0 = spec.orders[0]
    e0 = [0] * spec.rank
    e0[0] = 1
    length = max(2, min(n0 // 3, 1 + rng.randrange(max(n0 // 2, 2))))
    out.append(gen_progression(spec, [0] * spec.rank, [e0], [length]))
    out.append(gen_random(spec, max(2, min(card // 4, 1 + rng.randrange(24))), seed + 1))
    if spec.rank >= 2:
        e1 = [0] * spec.rank
        e1[1] = 1
        out.append(
            gen_progression(
                spec,
                [0] * spec.rank,
                [e0, e1],
                [max(2, n0 // 4), max(2, spec.orders[1] // 2)],
            )
        )
    divisor = next((d for d in (2, 3, 4) if n0 % d == 0), None)
    if divisor is not None:
        sub = [0] * spec.rank
        sub[0] = n0 // divisor
        out.append(gen_subgroup(spec, [sub]))
    return out


def zoo_sets() -> list[GroupSet]:
    """A random, an interval and a random-in-interval set on each zoo shape."""
    rng = Random(0)
    out = []
    for spec in SMALL_SPECS:
        e0 = [0] * spec.rank
        e0[0] = 1
        for family in ("random", "interval", "random-in-interval"):
            size = 1 + rng.randrange(min(spec.cardinality, 64))
            draw = rng.randrange(1 << 30)
            if family == "random":
                out.append(gen_random(spec, size, draw))
            elif family == "interval":
                length = max(2, min(size, spec.orders[0]))
                out.append(gen_progression(spec, [0] * spec.rank, [e0], [length]))
            else:
                span = min(spec.orders[0], max(4, 2 * size))
                out.append(gen_random_in_progression(
                    spec, [0] * spec.rank, [e0], [span], size, draw
                ))
    return out


def campaign_sets(max_card: int, count: int, seed: int,
                  min_density: Fraction | None = None) -> list[GroupSet]:
    """Deterministic campaign of `count` sets over the small spec zoo."""
    rng = Random(seed)
    specs = [s for s in SMALL_SPECS if s.cardinality <= max_card]
    out: list[GroupSet] = []
    i = 0
    while len(out) < count:
        spec = specs[i % len(specs)]
        i += 1
        card = spec.cardinality
        if min_density is not None:
            low = int(min_density * card) + 1
            size = rng.randrange(low, card + 1)
        else:
            size = 1 + rng.randrange(max(2, min(card, 64)))
        choice = rng.randrange(3)
        if choice == 0:
            out.append(gen_random(spec, size, seed + 13 * i))
        elif choice == 1 and min_density is None:
            e0 = [0] * spec.rank
            e0[0] = 1
            length = max(2, min(size, spec.orders[0]))
            out.append(gen_progression(spec, [0] * spec.rank, [e0], [length]))
        else:
            e0 = [0] * spec.rank
            e0[0] = 1
            span = min(spec.orders[0], max(4, 2 * size))
            out.append(
                gen_random_in_progression(
                    spec, [0] * spec.rank, [e0], [span], size, seed + 7 * i
                )
            )
    return out


# --- independent oracles -----------------------------------------------------


def oracle_sumset(a: GroupSet, b: GroupSet) -> set[tuple[int, ...]]:
    spec = a.spec
    out = set()
    for x in a.coords():
        for y in b.coords():
            out.add(tuple(int((xi + yi) % n) for xi, yi, n in zip(x, y, spec.orders)))
    return out


def oracle_iterated(a: GroupSet, k: int, l: int) -> set[tuple[int, ...]]:
    spec = a.spec
    points = [tuple(int(c) for c in row) for row in a.coords()]
    out = set()
    for plus in itertools.product(points, repeat=k):
        for minus in itertools.product(points, repeat=l):
            acc = [0] * spec.rank
            for p in plus:
                acc = [x + y for x, y in zip(acc, p)]
            for m in minus:
                acc = [x - y for x, y in zip(acc, m)]
            out.add(tuple(x % n for x, n in zip(acc, spec.orders)))
    return out


def oracle_dft(a: GroupSet) -> np.ndarray:
    """Direct per-character exponential sums, no shared phase tables."""
    spec = a.spec
    n = spec.cardinality
    values = np.zeros(n, dtype=complex)
    for idx in range(n):
        c = spec.coords_of(idx)
        total = 0j
        for row in a.coords():
            angle = sum(ci * int(xi) / ni for ci, xi, ni in zip(c, row, spec.orders))
            total += np.exp(2j * np.pi * angle)
        values[idx] = total / n
    return values


def oracle_inversion(spec: GroupSpec, coeffs: np.ndarray) -> np.ndarray:
    """Direct sum_gamma c(gamma) conj(gamma(x)) at every x, one term at a time."""
    n = spec.cardinality
    out = np.zeros(n, dtype=complex)
    for xi in range(n):
        x = spec.coords_of(xi)
        for ci in range(n):
            c = spec.coords_of(ci)
            angle = sum(cj * xj / nj for cj, xj, nj in zip(c, x, spec.orders))
            out[xi] += coeffs[ci] * np.exp(-2j * np.pi * angle)
    return out


def oracle_convolution_power(a: GroupSet, m: int, x) -> float:
    """Direct m-fold convolution by tuple enumeration."""
    spec = a.spec
    points = [tuple(int(c) for c in row) for row in a.coords()]
    target = tuple(x.coords)
    count = 0
    for combo in itertools.product(points, repeat=m):
        acc = [0] * spec.rank
        for p in combo:
            acc = [u + v for u, v in zip(acc, p)]
        if tuple(u % n for u, n in zip(acc, spec.orders)) == target:
            count += 1
    return count / spec.cardinality ** (m - 1)


def oracle_freiman_hom(phi, s: int) -> bool:
    """Group all s-tuples by their sum; fibers must map to single values."""
    domain = phi.domain
    spec = domain.spec
    elems = domain.elements()
    fibers: dict[int, set[int]] = {}
    for combo in itertools.product(elems, repeat=s):
        total = spec.zero()
        image = phi.target.zero()
        for e in combo:
            total = total + e
            image = image + phi(e)
        fibers.setdefault(total.index, set()).add(image.index)
    return all(len(v) == 1 for v in fibers.values())


def _arguments(spec: GroupSpec, characters, x) -> list[Fraction]:
    """Each character's argument at the point x, (sum c_i x_i / n_i) mod 1."""
    return [
        sum((Fraction(c * xi, n) for c, xi, n in zip(gamma.coords, x, spec.orders)),
            Fraction(0)) % 1
        for gamma in characters
    ]


def _points(spec: GroupSpec):
    """The points of G as coordinate tuples, in index (lexicographic) order."""
    return list(itertools.product(*(range(n) for n in spec.orders)))


def character_tuples(spec: GroupSpec, seed: int) -> list[tuple[str, tuple]]:
    """Labelled character tuples for checking a filter over G: the empty
    tuple, seeded random ones, ones with trivial, duplicate or order-2
    characters, and every ordering of one random triple."""
    rng = Random(seed)

    def pick(count):
        return tuple(spec.character_at(rng.randrange(spec.cardinality)) for _ in range(count))

    trivial = spec.trivial_character()
    order_two = tuple(
        spec.character([n // 2 if j == i else 0 for j in range(spec.rank)])
        for i, n in enumerate(spec.orders) if n % 2 == 0
    )
    (gamma,) = pick(1)
    triple = pick(3)
    out = [("empty", ())]
    out += [(f"random-{k}", pick(k)) for k in (1, 2, 4)]
    out += [("trivial", (trivial, gamma)), ("duplicate", (gamma, gamma, -gamma))]
    if order_two:
        out.append(("order-two", order_two + (gamma,)))
    out += [(f"ordering-{k}", perm) for k, perm in enumerate(itertools.permutations(triple))]
    return out


def oracle_bohr_set(spec: GroupSpec, characters, rho: Fraction) -> list[int]:
    """The indices x with every argument within rho of 0, point by point."""
    return [
        i for i, x in enumerate(_points(spec))
        if all(min(r, 1 - r) <= rho for r in _arguments(spec, characters, x))
    ]


def oracle_kernel(spec: GroupSpec, characters) -> tuple[list[int], list[tuple[int, ...]]]:
    """The indices x with every argument 0, and the generators chosen from
    them greedily: the least kernel point outside the span of those before
    it, the span grown by adding multiples until nothing new appears."""
    points = _points(spec)
    members = [i for i, x in enumerate(points)
               if all(r == 0 for r in _arguments(spec, characters, x))]
    span = {tuple([0] * spec.rank)}
    generators = []
    for i in members:
        if points[i] in span:
            continue
        generators.append(points[i])
        grown = set(span)
        while True:
            step = {tuple((a + b) % n for a, b, n in zip(s, points[i], spec.orders))
                    for s in grown} | grown
            if step == grown:
                break
            grown = step
        span = grown
    return members, generators


MINIMA_SPECS = [
    GroupSpec((2048,)),
    GroupSpec((1024, 2)),
    GroupSpec((64, 32)),
    GroupSpec((128,)),
    GroupSpec((81,)),
    GroupSpec((7, 49)),
    GroupSpec((12, 30)),
    GroupSpec((101,)),
]

MINIMA_RHOS = [
    Fraction(1, 5),
    Fraction(1, 6),
    Fraction(1, 7),
    Fraction(1, 8),
    Fraction(1, 12),
]


def seeded_minima_cases(count: int, seed: int):
    """Deterministic (spec, characters, rho) cases with d <= 4, |G| <= 2048."""
    rng = Random(seed)
    cases = []
    while len(cases) < count:
        spec = MINIMA_SPECS[rng.randrange(len(MINIMA_SPECS))]
        d = 1 + rng.randrange(4)
        chars = []
        seen = set()
        while len(chars) < d:
            idx = 1 + rng.randrange(spec.cardinality - 1)
            if idx in seen:
                continue
            seen.add(idx)
            chars.append(spec.character_at(idx))
        cases.append((spec, tuple(chars), MINIMA_RHOS[rng.randrange(len(MINIMA_RHOS))]))
    return cases


@pytest.fixture(scope="session")
def fourier_campaign():
    return campaign_sets(512, 60, seed=2024)
