"""Bohr sets, lattice successive minima, and progression extraction.

The lattice attached to a Bohr description B(Gamma, rho) is
Lambda = phi(G) + Z^d, where phi maps x to the vector of centered
fractional arguments of the characters.  All minima computations are
exact: arguments are rationals over the common denominator lcm(ord(gamma_j)),
and every minimum is at most 1 because the integer unit vectors lie in the
unit cube.  The minima come from one greedy scan by norm, in two stages:
the centered lifts of norm below 1/2 first, a band of rows at a time, and
only if they span less than rank d the shifted lifts and unit vectors, all
of norm at least 1/2, one norm level at a time.  Since nothing else has
norm below 1/2, the two stages pick exactly what a scan of the whole
candidate table would (see ``successive_minima``).  Candidates are tested
for independence a fixed-size block at a time, and the scan stops at rank
d, so no band or level past the last pick is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .checks import BoundCheck
from .errors import DomainError, InvariantError, ResourceLimitError, StructureError
from .fourier import BohrSpec
from .groups import (
    Character,
    GroupElement,
    GroupSpec,
    Subgroup,
    arg_numerators_over_group,
    filter_by_characters,
    kernel_of_characters,
    smith_normal_form,
)
from .sumsets import GroupSet, sumset

_CANDIDATE_BUDGET = 1 << 24
_BLOCK = 64  # candidates per independence test
_BAND = 64  # rows in the first centered band; each later band doubles
_PAIRS = 4096  # (row, pattern) pairs per broadcast of a shifted level


def bohr_set(spec_b: BohrSpec) -> GroupSet:
    """Exact membership: circular distance of every argument at most rho.

    An argument t/q is within rho of 0 exactly when min(t, q - t) is at most
    k = floor(rho q), i.e. t <= k or t >= q - k.  ``filter_by_characters``
    makes one pass over G, then tests each later character only on the
    points the earlier ones kept (about 2 rho |G| after the first).
    """
    rho = spec_b.rho

    def near_zero(t: np.ndarray, q: int) -> np.ndarray:
        k = min(rho.numerator * q // rho.denominator, q)
        return (t <= k) | (t >= q - k)

    indices = filter_by_characters(spec_b.spec, spec_b.chars, near_zero)
    return GroupSet.from_sorted(spec_b.spec, indices)


def strip_redundant_characters(
    characters: Sequence[Character],
) -> tuple[tuple[Character, ...], tuple[Character, ...]]:
    """Drop trivial and duplicate characters; returns (kept, stripped)."""
    kept: list[Character] = []
    stripped: list[Character] = []
    seen: set[tuple[int, ...]] = set()
    for gamma in characters:
        if gamma.is_trivial() or gamma.coords in seen:
            stripped.append(gamma)
        else:
            kept.append(gamma)
            seen.add(gamma.coords)
    return tuple(kept), tuple(stripped)


@dataclass(frozen=True, eq=False)
class MinimaReport:
    """Successive minima of the unit cube with respect to phi(G) + Z^d."""

    spec: GroupSpec
    chars: tuple[Character, ...]
    stripped: tuple[Character, ...]
    denominator: int
    lambdas: tuple[Fraction, ...]
    vectors: tuple[tuple[Fraction, ...], ...]
    preimages: tuple[GroupElement, ...]
    subgroup: Subgroup
    det: Fraction

    @property
    def dimension(self) -> int:
        return len(self.chars)

    def minkowski_holds(self) -> bool:
        return math.prod(self.lambdas, start=Fraction(1)) <= self.det

    def first_dependent(self) -> int | None:
        """The index of the first vector in the rational span of those before
        it, or None when the vectors are independent: the first prefix whose
        Smith form has a rank below its length."""
        rows = [_integer_row(v) for v in self.vectors]
        if len(smith_normal_form(rows)[0]) == len(rows):
            return None
        return next(i for i in range(len(rows)) if len(smith_normal_form(rows[: i + 1])[0]) <= i)


def _orthogonal_part(basis: list[list[int]], row: Sequence[int]) -> list[list[int]]:
    """Integer basis of the vectors in span(basis) orthogonal to ``row``:
    those orthogonal to it, and the combinations of the others that the
    left kernel of their column of dot products gives, each divided by its
    content (none when one vector or none has a nonzero dot)."""
    dots = [sum(b * r for b, r in zip(vec, row)) for vec in basis]
    cut = [vec for vec, t in zip(basis, dots) if t]
    out = [vec for vec, t in zip(basis, dots) if not t]
    for c in smith_normal_form([[t] for t in dots if t], left=True)[1][1:] if len(cut) > 1 else ():
        comb = [0] * len(row)
        for x, vec in zip(c, cut):
            comb = [y + x * v for y, v in zip(comb, vec)] if x else comb
        g = math.gcd(*comb)
        out.append([v // g for v in comb])
    return out


def _integer_row(row: Sequence[int | Fraction]) -> list[int]:
    """A rational row scaled by the lcm of its denominators."""
    den = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row]


def minima_frame(characters: Sequence[Character]) -> MinimaReport:
    """The kept and stripped characters, the kernel H, det = |H|/|G| and
    the common denominator; lambdas, vectors and preimages are left empty."""
    kept, stripped = strip_redundant_characters(characters)
    if not kept:
        raise DomainError("all characters are trivial or redundant")
    spec = kept[0].spec
    subgroup = kernel_of_characters(spec, kept)
    return MinimaReport(
        spec=spec,
        chars=kept,
        stripped=stripped,
        denominator=math.lcm(*(g.order() for g in kept)),
        lambdas=(),
        vectors=(),
        preimages=(),
        subgroup=subgroup,
        det=Fraction(subgroup.order, spec.cardinality),
    )


def _extend_independent(
    chosen: list[tuple[np.ndarray, int, int]],
    null: list[list[int]],
    blocks: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]],
    m_den: int,
) -> list[list[int]]:
    """Append to ``chosen`` each candidate, in the order ``blocks`` yields
    them as (rows, norms, preimages), that is rationally independent of
    those chosen before it, until rank d; no block is drawn after that.

    ``null`` is an integer basis of the null space of the chosen rows, so
    a row is independent exactly when some basis vector has a nonzero dot
    with it; the updated basis is returned.  Rows are tested ``_BLOCK`` at
    a time, so a pick costs one block of dot products.  Rows before a pick
    were dependent on the smaller set chosen when they were passed, so
    each search resumes just after the last pick.
    """
    d = len(chosen) + len(null)  # rank plus nullity
    nmat = _null_matrix(null, m_den)
    for rows, norms, preim in blocks:
        start = 0
        while start < len(rows):
            block = rows[start:start + _BLOCK]
            dots = block.astype(nmat.dtype, copy=False) @ nmat
            hits = np.flatnonzero(np.any(dots != 0, axis=1))
            if not len(hits):
                start += len(block)
                continue
            pick = start + int(hits[0])
            chosen.append((rows[pick], int(norms[pick]), int(preim[pick])))
            null = _orthogonal_part(null, [int(v) for v in rows[pick]])
            if len(chosen) == d:
                return null
            if not null:
                raise InvariantError("null space vanished before reaching rank d")
            nmat = _null_matrix(null, m_den)
            start = pick + 1
    return null


def _null_matrix(null: list[list[int]], m_den: int) -> np.ndarray:
    """The null basis as columns: int64 when every dot with a candidate
    (entries at most m_den) fits, object integers otherwise."""
    peak = max(abs(v) for vec in null for v in vec)
    exact = peak * m_den * len(null[0]) < (1 << 62)
    return np.array(null, dtype=np.int64 if exact else object).T


def _centered_bands(
    table: np.ndarray, norms: np.ndarray, m_den: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The rows of norm in (0, 1/2) in (norm, index) order, a band at a
    time.  A band is every remaining row up to the k-th smallest remaining
    norm, ties included, with k = ``_BAND`` doubling per band; only the
    band is sorted.  A row's preimage is its index."""
    rest = np.flatnonzero((norms > 0) & (2 * norms < m_den))
    k = _BAND
    while len(rest):
        rest_norms = norms[rest]
        kth = min(k, len(rest)) - 1
        inside = rest_norms <= np.partition(rest_norms, kth)[kth]
        band, rest = rest[inside], rest[~inside]
        band = band[np.argsort(norms[band], kind="stable")]
        yield table[band], norms[band], band
        k *= 2


def _shifted_levels(
    table: np.ndarray, m_den: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every candidate of norm in [1/2, 1] in (norm, preimage, shift
    pattern) order, one norm level at a time: the centered row r of each
    distinct nonzero image, preimage its first index, with a set S of its
    nonzero coordinates moved by m toward the other sign, and the unit
    vectors (preimage 0, after every pattern).

    Moving coordinate j takes |r_j| <= m/2 to m - |r_j| >= m/2, so for S
    nonempty the norm is m - min over S of |r_j|.  The level of norm m - v
    holds the rows with some |r_j| = v, each with the patterns S within
    {j : |r_j| >= v} that meet {j : |r_j| = v}, and with S empty too when
    v = m/2.  A level is built ``_PAIRS`` (row, pattern) pairs per
    broadcast, with patterns as bit masks; nothing is built past the
    block the scan stops in.
    """
    d = table.shape[1]
    rows, first = np.unique(table, axis=0, return_index=True)
    order = np.argsort(first)[1:]  # the zero row is the image of index 0
    rows, preim = rows[order], first[order].astype(np.int64)
    alt = rows - np.sign(rows) * m_den
    mags = np.abs(rows)
    weight = 1 << np.arange(d, dtype=np.int64)
    # nonzero (row, coordinate) cells by decreasing magnitude, rows in order
    flat = mags.ravel()
    cells = np.argsort(-flat, kind="stable")
    cells = cells[flat[cells] > 0]
    for level in np.split(cells, np.flatnonzero(np.diff(flat[cells])) + 1):
        v = int(flat[level[0]])
        at = np.unique(level // d)
        inside = mags[at] >= v
        meet = (mags[at] == v) @ weight
        # at v = m/2 no |r_j| is larger, and S empty has norm m/2 as well
        whole = 2 * v == m_den
        # the subsets of each row's {j : |r_j| >= v}, counted in order: the
        # bits of a count s spread onto those columns, lowest first
        count = 1 << inside.sum(axis=1)
        ends = np.cumsum(count)
        spots = np.argsort(~inside, axis=1, kind="stable")
        for lo in range(0, int(ends[-1]), _PAIRS):
            pair = np.arange(lo, min(lo + _PAIRS, int(ends[-1])), dtype=np.int64)
            r = np.searchsorted(ends, pair, side="right")
            s = pair - ends[r] + count[r]
            bits = (((s[:, None] >> np.arange(d)) & 1) << spots[r]).sum(axis=1)
            ok = whole | ((bits & meet[r]) != 0)
            r, bits = at[r[ok]], bits[ok]
            if len(r):
                moved = (bits[:, None] & weight) != 0
                yield (np.where(moved, alt[r], rows[r]),
                       np.full(len(r), m_den - v, dtype=np.int64), preim[r])
    yield (np.eye(d, dtype=np.int64) * m_den, np.full(d, m_den, dtype=np.int64),
           np.zeros(d, dtype=np.int64))


def successive_minima(characters: Sequence[Character]) -> MinimaReport:
    """Exact successive minima, attaining vectors, and group preimages.

    Candidates are the centered lifts of phi(G) together with the integer
    shifts keeping every coordinate within max-norm 1, plus the unit
    vectors; vectors are taken in order of (norm, preimage, shift pattern)
    and kept when rationally independent of those already chosen.

    The scan is lazy and picks exactly what that full order picks.  Every
    shifted lift and every unit vector has norm at least 1/2, so the
    centered rows of norm below 1/2 come first; the fast path scans them
    for every x in G in (norm, index) order, sorting one band of the
    smallest remaining norms at a time.  A repeated row has the same norm
    and a larger index than its first occurrence, so it is reached when it
    is already dependent, and every pick is its row's first preimage.
    Only when these rows span less than rank d (order-2 characters, whose
    nonzero coordinates are all exactly 1/2, force this) does the scan go
    on to the shifted lifts, built one norm level at a time.  The scan
    stops at rank d; the budget on (|G:H| - 1) 2^d, the size of the whole
    shifted table, is still checked before it starts.
    """
    chars = list(characters)
    if not chars:
        raise DomainError("successive minima need at least one character")
    spec = chars[0].spec
    for c in chars:
        if c.spec != spec:
            raise StructureError("characters of different groups")
    frame = minima_frame(chars)
    kept, subgroup, m_den = frame.chars, frame.subgroup, frame.denominator
    d = len(kept)
    if (spec.cardinality // subgroup.order - 1) << d > _CANDIDATE_BUDGET:
        raise ResourceLimitError(
            f"minima candidate enumeration too large in dimension {d}"
        )

    cols = []
    for gamma in kept:
        t = arg_numerators_over_group(gamma) * (m_den // gamma.order())
        cols.append(np.where(2 * t > m_den, t - m_den, t))  # centered (-1/2, 1/2]
    table = np.stack(cols, axis=1)

    # x -> table[x] is a homomorphism into (Z/m_den)^d with kernel H, so
    # the image has |G:H| rows exactly when |H| rows are zero
    norms = np.abs(table).max(axis=1)
    if int(np.count_nonzero(norms == 0)) != subgroup.order:
        raise InvariantError("image size does not match the kernel index")

    chosen: list[tuple[np.ndarray, int, int]] = []
    null = [[int(i == j) for j in range(d)] for i in range(d)]
    null = _extend_independent(chosen, null, _centered_bands(table, norms, m_den), m_den)
    if len(chosen) < d:
        _extend_independent(chosen, null, _shifted_levels(table, m_den), m_den)
    if len(chosen) < d:
        raise InvariantError("candidate enumeration cannot reach rank d")

    return replace(
        frame,
        lambdas=tuple(Fraction(norm, m_den) for _, norm, _ in chosen),
        vectors=tuple(
            tuple(Fraction(int(v), m_den) for v in row) for row, _, _ in chosen
        ),
        preimages=tuple(spec.element_at(pre) for _, _, pre in chosen),
    )


@dataclass(frozen=True, eq=False)
class CosetProgression:
    """P + H: base + integer spans of generators, plus a subgroup, direct sum.

    Bounds are inclusive (lo, hi) coefficient ranges per generator; the
    ``proper`` flag records the outcome of a counting check, it is never
    assumed.
    """

    spec: GroupSpec
    base: GroupElement
    generators: tuple[GroupElement, ...]
    bounds: tuple[tuple[int, int], ...]
    subgroup: Subgroup
    proper: bool

    def __post_init__(self) -> None:
        if self.base.spec != self.spec or self.subgroup.spec != self.spec:
            raise StructureError("progression pieces live in different groups")
        for g in self.generators:
            if g.spec != self.spec:
                raise StructureError("generator from a different group")
        if len(self.generators) != len(self.bounds):
            raise StructureError("generator and bound counts differ")
        for lo, hi in self.bounds:
            if lo > hi:
                raise DomainError(f"empty coefficient range [{lo}, {hi}]")

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def formal_size(self) -> int:
        return self.subgroup.order * math.prod(
            hi - lo + 1 for lo, hi in self.bounds
        )


def materialize(cp: CosetProgression) -> GroupSet:
    """The underlying element set: base + H, then one sumset per generator.

    The multiples l*g depend on l mod ord(g) only, so at most ord(g) of them
    are built.  Once the set is all of G it stays G, and the loop stops.
    """
    spec = cp.spec
    spec.require_enumerable()
    current = GroupSet(spec, spec.add_scalar(cp.subgroup.indices, cp.base.index))
    for g, (lo, hi) in zip(cp.generators, cp.bounds):
        if current.size == spec.cardinality:
            break
        order = g.order()
        start = lo % order
        ls = np.arange(start, start + min(hi - lo + 1, order), dtype=np.int64)
        multiples = GroupSet(spec, spec.encode(np.outer(ls, g.coords)))
        current = sumset(current, multiples)
    return current


def to_one_sided(cp: CosetProgression) -> CosetProgression:
    """Shift the base so every coefficient range starts at zero."""
    base = cp.base
    for g, (lo, _) in zip(cp.generators, cp.bounds):
        base = base + lo * g
    return replace(cp, base=base, bounds=tuple((0, hi - lo) for lo, hi in cp.bounds))


@dataclass(frozen=True, eq=False)
class BohrExtraction:
    """A coset progression inside a Bohr set, with its extraction checks.

    ``minima`` is None for the whole group, the Bohr set of an empty Phi.
    """

    progression: CosetProgression
    minima: MinimaReport | None
    checks: tuple[BoundCheck, ...]


def minima_extraction(spec_b: BohrSpec, minima: MinimaReport, bset: GroupSet) -> BohrExtraction:
    """P + H from the minima, with ranges L_j = floor(rho / (d lambda_j)), and
    its checks: Minkowski's second theorem, containment in the Bohr set
    ``bset`` of ``spec_b``, properness by counting (which sets ``proper``)
    and the exact size lower bound (rho/d)^d |G|.  A failing check is
    returned, never raised.

    Zero-range generators contribute nothing to the set; dropping them
    keeps the reported dimension equal to what the progression spans (the
    size bound still uses the full minima dimension d).
    """
    rho = spec_b.rho
    d = minima.dimension
    generators = []
    bounds = []
    for g, lam in zip(minima.preimages, minima.lambdas):
        l_j = math.floor(rho / (d * lam))
        if l_j >= 1:
            generators.append(g)
            bounds.append((-l_j, l_j))
    cp = CosetProgression(
        spec=spec_b.spec,
        base=spec_b.spec.zero(),
        generators=tuple(generators),
        bounds=tuple(bounds),
        subgroup=minima.subgroup,
        proper=False,
    )
    realized = materialize(cp)
    proper = realized.size == cp.formal_size
    size_lower = (rho / d) ** d * spec_b.spec.cardinality
    checks = (
        BoundCheck.make("bohr_minkowski", minima.minkowski_holds(),
                        math.prod(minima.lambdas, start=Fraction(1)), minima.det),
        BoundCheck.make("bohr_progression_contained", realized.is_subset(bset),
                        realized.size, bset.size),
        BoundCheck.make("bohr_progression_proper", proper,
                        realized.size, cp.formal_size),
        BoundCheck.make("bohr_progression_size", realized.size >= size_lower,
                        Fraction(realized.size), size_lower),
    )
    return BohrExtraction(replace(cp, proper=proper), minima, checks)


def whole_group_extraction(spec_b: BohrSpec) -> BohrExtraction:
    """P + H = G with no generators: the Bohr set of an empty Phi."""
    group = spec_b.spec
    units = np.eye(group.rank, dtype=np.int64)[np.array(group.orders) > 1]
    gens = tuple(group.element(row.tolist()) for row in units)
    h = Subgroup(group, gens, np.arange(group.cardinality, dtype=np.int64))
    cp = CosetProgression(group, group.zero(), (), (), h, proper=True)
    check = BoundCheck.make(
        "extraction_whole_group", h.order == group.cardinality, h.order, group.cardinality
    )
    return BohrExtraction(cp, None, (check,))


def progression_from_bohr(spec_b: BohrSpec, bset: GroupSet | None = None) -> BohrExtraction:
    """Extract a proper coset progression P + H inside B(Gamma, rho).

    ``bset`` is the Bohr set, built here unless the caller has it.  Every
    extraction check is a guarantee: a failure raises InvariantError.
    """
    rho = spec_b.rho
    if not Fraction(0) < rho < Fraction(1, 4):
        raise DomainError("extraction requires 0 < rho < 1/4")
    if not spec_b.chars:
        raise DomainError("extraction requires at least one character")
    minima = successive_minima(spec_b.chars)
    if bset is None:
        bset = bohr_set(spec_b)
    extraction = minima_extraction(spec_b, minima, bset)
    for check in extraction.checks:
        if not check.passed:
            raise InvariantError(f"guaranteed property failed: {check.line()}")
    return extraction
