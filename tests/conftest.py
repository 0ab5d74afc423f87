"""Shared instance builders and independent brute-force oracles.

The oracles here recompute expected values by direct enumeration and are
kept free of the library code paths they are used to check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from cosetprog import FreimanMap, GroupSet, GroupSpec
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


def map_from_table(spec: GroupSpec, target: GroupSpec, table: dict[int, int]) -> FreimanMap:
    """The map on the set of ``table``'s keys (indices in ``spec``) that
    sends each key to its value (an index in ``target``)."""
    domain = GroupSet(spec, np.array(list(table), dtype=np.int64))
    return FreimanMap(domain, target, [table[i] for i in domain.indices.tolist()])


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


def oracle_kernel(spec: GroupSpec, characters) -> list[int]:
    """The indices x with every argument 0."""
    return [i for i, x in enumerate(_points(spec))
            if all(r == 0 for r in _arguments(spec, characters, x))]


def echelon_insert(echelon, vec) -> bool:
    """Add ``vec`` to a list of (pivot column, row scaled to 1 there) in
    row echelon form over the rationals; False, and no change, when it is
    dependent."""
    rest = [Fraction(v) for v in vec]
    for col, row in echelon:
        rest = [a - rest[col] * b for a, b in zip(rest, row)]
    lead = next((c for c, v in enumerate(rest) if v), None)
    if lead is not None:
        echelon.append((lead, [v / rest[lead] for v in rest]))
    return lead is not None


def oracle_minima(characters):
    """Successive minima of the unit cube for phi(G) + Z^d from the whole
    candidate table, scanned greedily: (lambdas, vectors, preimage
    indices, |H|).

    Trivial and repeated characters are dropped.  phi(x) is each
    argument centered into (-1/2, 1/2], over the lcm m of the character
    orders.  The table holds every distinct nonzero image, its preimage
    the first x with it, with every subset of its nonzero coordinates
    moved by one toward the other sign, and the unit vectors (preimage 0,
    after every pattern); it is sorted by (norm, preimage, shift pattern).
    """
    spec = characters[0].spec
    kept, seen = [], set()
    for gamma in characters:
        coords = tuple(c % n for c, n in zip(gamma.coords, spec.orders))
        if any(coords) and coords not in seen:
            kept.append(gamma)
            seen.add(coords)
    d = len(kept)
    m = math.lcm(*(n // math.gcd(c, n) for g in kept for c, n in zip(g.coords, spec.orders)))
    table = np.array([[int(r * m) for r in _arguments(spec, kept, x)] for x in _points(spec)],
                     dtype=np.int64)
    table = np.where(2 * table > m, table - m, table)
    rows, first = np.unique(table, axis=0, return_index=True)
    nonzero = ~np.all(rows == 0, axis=1)
    rows, first = rows[nonzero], first[nonzero]
    alt = np.where(rows > 0, rows - m, rows + m)
    cands = [(m, 0, (1 << d) + j, tuple(m * (i == j) for i in range(d))) for j in range(d)]
    for bits in range(1 << d):
        sel = np.array([(bits >> j) & 1 for j in range(d)], dtype=bool)
        valid = ~np.any(sel & (rows == 0), axis=1)
        vecs = np.where(sel, alt, rows)[valid]
        cands += zip(np.abs(vecs).max(axis=1).tolist(), first[valid].tolist(),
                     itertools.repeat(bits), map(tuple, vecs.tolist()))
    cands.sort()
    picks, echelon = [], []
    for norm, pre, _, vec in cands:
        if len(picks) == d:
            break
        if echelon_insert(echelon, vec):
            picks.append((Fraction(norm, m), pre, vec))
    return (
        tuple(p[0] for p in picks),
        tuple(tuple(Fraction(v, m) for v in p[2]) for p in picks),
        tuple(p[1] for p in picks),
        int(np.count_nonzero(~np.any(table, axis=1))),
    )


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def _log(x: int, p: int) -> int:
    """The e with p^e = x, for x a power of p."""
    e = 0
    while x > 1:
        x //= p
        e += 1
    return e


def oracle_invariant_factors(spec: GroupSpec, members) -> list[int]:
    """The invariant factors d_1, d_2, ... (each dividing the one before)
    of the subgroup with the given indices, read from counts of element
    orders: with c(m) the number of its points whose order divides m,
    c(p^k) / c(p^(k-1)) is p to the number of factors divisible by p^k."""
    orders = [math.lcm(*(n // math.gcd(c, n) for c, n in zip(spec.coords_of(i), spec.orders)))
              for i in members]
    factors: list[int] = []
    for p in _primes(len(members)):
        counts = [1]
        while (c := sum(1 for q in orders if p ** len(counts) % q == 0)) > counts[-1]:
            counts.append(c)
        at_least = [_log(b // a, p) for a, b in zip(counts, counts[1:])]
        for j in range(at_least[0]):
            if j == len(factors):
                factors.append(1)
            factors[j] *= p ** sum(1 for r in at_least if r > j)
    return factors


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
