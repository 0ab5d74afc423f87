"""Bohr sets, lattice successive minima, and progression extraction.

The lattice attached to a Bohr description B(Gamma, rho) is
Lambda = phi(G) + Z^d, where phi maps x to the vector of centered
fractional arguments of the characters.  All minima computations are
exact: arguments are rationals over the common denominator lcm(ord(gamma_j)),
and every minimum is at most 1 because the integer unit vectors lie in the
unit cube.  The minima come from one greedy scan by norm, in two stages:
the centered lifts of norm below 1/2 first, and only if they span less
than rank d the shifted lifts and unit vectors, all of norm at least 1/2.
Since nothing else has norm below 1/2, the two stages pick exactly what a
scan of the whole candidate table would (see ``successive_minima``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

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
)
from .sumsets import GroupSet, sumset

_CANDIDATE_BUDGET = 1 << 24


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
        it, or None when the vectors are independent.  A vector is in that
        span exactly when it leaves the null space of those before it whole."""
        basis = _integer_nullspace([], len(self.vectors[0]) if self.vectors else 0)
        for i, row in enumerate(self.vectors):
            cut = _orthogonal_part(basis, _integer_row(row))
            if len(cut) == len(basis):
                return i
            basis = cut
        return None


def _orthogonal_part(basis: list[list[int]], row: Sequence[int]) -> list[list[int]]:
    """Integer basis of the vectors in span(basis) orthogonal to ``row``.

    One fraction-free elimination step: with a pivot p, p.row != 0, each
    other basis vector b becomes (p.row) b - (b.row) p, divided by its
    content.  These are independent, orthogonal to ``row`` and one fewer,
    so they span the whole orthogonal part; ``basis`` comes back unchanged
    when ``row`` is already orthogonal to it.
    """
    dots = [sum(b * r for b, r in zip(vec, row)) for vec in basis]
    pivot = next((i for i, t in enumerate(dots) if t), None)
    if pivot is None:
        return basis
    p, tp = basis[pivot], dots[pivot]
    out = []
    for i, (vec, t) in enumerate(zip(basis, dots)):
        if i != pivot:
            comb = [tp * v - t * w for v, w in zip(vec, p)]
            g = math.gcd(*comb)
            out.append([c // g for c in comb])
    return out


def _integer_nullspace(
    rows: Sequence[Sequence[int | Fraction]], width: int
) -> list[list[int]]:
    """Integer basis of the right null space of a rational matrix: the unit
    vectors, cut down to the part orthogonal to each row in turn."""
    basis = [[int(i == j) for j in range(width)] for i in range(width)]
    for row in rows:
        basis = _orthogonal_part(basis, _integer_row(row))
    return basis


def _integer_row(row: Sequence[int | Fraction]) -> list[int]:
    """A rational row scaled by the lcm of its denominators."""
    den = math.lcm(*(Fraction(v).denominator for v in row))
    return [int(Fraction(v) * den) for v in row]


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
    rows: np.ndarray,
    norms: np.ndarray,
    preim: np.ndarray,
    m_den: int,
) -> list[list[int]]:
    """Append to ``chosen`` each candidate, in the given order, that is
    rationally independent of those chosen before it, until rank d.

    ``null`` is an integer basis of the null space of the chosen rows, so
    a row is independent exactly when some basis vector has a nonzero dot
    with it; the updated basis is returned.  Rows before a pick were
    dependent on the smaller set chosen when they were passed, so each
    search resumes just after the last pick.
    """
    d = len(chosen) + len(null)  # rank plus nullity
    start = 0
    while len(chosen) < d and start < len(rows):
        if not null:
            raise InvariantError("null space vanished before reaching rank d")
        peak = max(abs(v) for vec in null for v in vec)
        exact = peak * m_den * d < (1 << 62)
        nmat = np.array(null, dtype=np.int64 if exact else object).T
        rest = rows[start:]
        dots = rest @ nmat if exact else rest.astype(object) @ nmat
        hits = np.flatnonzero(np.any(dots != 0, axis=1))
        if not len(hits):
            break
        pick = start + int(hits[0])
        row = rows[pick]
        chosen.append((row, int(norms[pick]), int(preim[pick])))
        null = _orthogonal_part(null, [int(v) for v in row])
        start = pick + 1
    return null


def _shifted_lifts(
    table: np.ndarray, m_den: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate of max-norm in [1/2, 1], ordered by (norm, preimage,
    shift pattern): the centered row of each distinct nonzero image with
    every subset of its nonzero coordinates moved by one toward the other
    sign, and the unit vectors (preimage 0, after every pattern).  A row's
    preimage is its first index."""
    d = table.shape[1]
    rows, first = np.unique(table, axis=0, return_index=True)
    nonzero_rows = ~np.all(rows == 0, axis=1)
    rows, preim = rows[nonzero_rows], first[nonzero_rows].astype(np.int64)
    alt = np.where(rows > 0, rows - m_den, rows + m_den)
    cand_rows = [np.eye(d, dtype=np.int64) * m_den]
    cand_pre = [np.zeros(d, dtype=np.int64)]
    cand_sel = [np.arange(d, dtype=np.int64) + (1 << d)]
    for bits in range(1 << d):
        sel = np.array([(bits >> j) & 1 for j in range(d)], dtype=bool)
        valid = ~np.any(sel[None, :] & (rows == 0), axis=1)
        cand_rows.append(np.where(sel[None, :], alt, rows)[valid])
        cand_pre.append(preim[valid])
        cand_sel.append(np.full(int(valid.sum()), bits, dtype=np.int64))
    all_rows = np.concatenate(cand_rows)
    all_pre = np.concatenate(cand_pre)
    all_sel = np.concatenate(cand_sel)
    norms = np.abs(all_rows).max(axis=1)
    keep = 2 * norms >= m_den
    all_rows, all_pre, all_sel, norms = (
        all_rows[keep], all_pre[keep], all_sel[keep], norms[keep]
    )
    order = np.lexsort((all_sel, all_pre, norms))
    return all_rows[order], norms[order], all_pre[order]


def successive_minima(characters: Sequence[Character]) -> MinimaReport:
    """Exact successive minima, attaining vectors, and group preimages.

    Candidates are the centered lifts of phi(G) together with the integer
    shifts keeping every coordinate within max-norm 1, plus the unit
    vectors; vectors are taken in order of (norm, preimage, shift pattern)
    and kept when rationally independent of those already chosen.

    The scan is lazy and picks exactly what that full order picks.  Every
    shifted lift and every unit vector has norm at least 1/2, so the
    centered rows of norm below 1/2 come first; the fast path scans them
    for every x in G in (norm, index) order.  A repeated row has the same
    norm and a larger index than its first occurrence, so it is reached
    when it is already dependent, and every pick is its row's first
    preimage.  Only when these rows span less than rank d (order-2
    characters, whose nonzero coordinates are all exactly 1/2, force
    this) is the table of shifted lifts built, and the same scan goes on
    over its candidates of norm at least 1/2.
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

    short = np.flatnonzero((norms > 0) & (2 * norms < m_den))
    short = short[np.argsort(norms[short], kind="stable")]
    chosen: list[tuple[np.ndarray, int, int]] = []
    null = _integer_nullspace([], d)
    null = _extend_independent(chosen, null, table[short], norms[short], short, m_den)
    if len(chosen) < d:
        _extend_independent(chosen, null, *_shifted_lifts(table, m_den), m_den)
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
