"""Bohr sets, lattice successive minima, and progression extraction.

The lattice attached to a Bohr description B(Gamma, rho) is
Lambda = phi(G) + Z^d, where phi maps x to the vector of centered
fractional arguments of the characters.  All minima computations are
exact: arguments are rationals over the common denominator lcm(ord(gamma_j)),
and candidate vectors are enumerated exhaustively (every minimum is at
most 1 because the integer unit vectors lie in the unit cube).
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
    DEFAULT_ENUMERATION_CAP,
    Character,
    GroupElement,
    GroupSpec,
    Subgroup,
    kernel_of_characters,
)
from .sumsets import GroupSet, sumset

_CANDIDATE_BUDGET = 1 << 24


def bohr_set(spec_b: BohrSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> GroupSet:
    """Exact membership: circular distance of every argument at most rho."""
    group = spec_b.spec
    group.require_enumerable(cap)
    coords = group.decode(np.arange(group.cardinality, dtype=np.int64))
    mask = np.ones(group.cardinality, dtype=bool)
    num, den = spec_b.rho.numerator, spec_b.rho.denominator
    for gamma in spec_b.chars:
        q = gamma.order()
        t = gamma.arg_numerators(coords)
        circ = np.minimum(t, q - t)
        mask &= circ * den <= num * q
    return GroupSet(group, np.nonzero(mask)[0].astype(np.int64))


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

    def vectors_independent(self) -> bool:
        width = len(self.vectors[0]) if self.vectors else 0
        return width - len(_integer_nullspace(self.vectors, width)) == len(self.vectors)


def _integer_nullspace(
    rows: Sequence[Sequence[int | Fraction]], width: int
) -> list[list[int]]:
    """Integer basis of the right null space of a rational matrix."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [v / pv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    basis: list[list[int]] = []
    free_cols = [c for c in range(width) if c not in pivots]
    for free in free_cols:
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][free]
        den = math.lcm(*(f.denominator for f in vec))
        basis.append([int(f * den) for f in vec])
    return basis


def minima_frame(
    characters: Sequence[Character], cap: int = DEFAULT_ENUMERATION_CAP
) -> MinimaReport:
    """The kept and stripped characters, the kernel H, det = |H|/|G| and
    the common denominator; lambdas, vectors and preimages are left empty."""
    kept, stripped = strip_redundant_characters(characters)
    if not kept:
        raise DomainError("all characters are trivial or redundant")
    spec = kept[0].spec
    subgroup = kernel_of_characters(spec, kept, cap)
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


def successive_minima(
    characters: Sequence[Character],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MinimaReport:
    """Exact successive minima, attaining vectors, and group preimages.

    Candidates are the centered lifts of phi(G) together with the integer
    shifts keeping every coordinate within max-norm 1, plus the unit
    vectors; vectors are taken in order of (norm, preimage, shift pattern)
    and kept when rationally independent of those already chosen.
    """
    chars = list(characters)
    if not chars:
        raise DomainError("successive minima need at least one character")
    spec = chars[0].spec
    for c in chars:
        if c.spec != spec:
            raise StructureError("characters of different groups")
    frame = minima_frame(chars, cap)
    kept, subgroup, m_den = frame.chars, frame.subgroup, frame.denominator
    d = len(kept)

    coords = spec.decode(np.arange(spec.cardinality, dtype=np.int64))
    cols = []
    for gamma in kept:
        q = gamma.order()
        t = gamma.arg_numerators(coords) * (m_den // q)
        cols.append(np.where(2 * t > m_den, t - m_den, t))  # centered (-1/2, 1/2]
    table = np.stack(cols, axis=1)

    rows, first = np.unique(table, axis=0, return_index=True)
    preim = first.astype(np.int64)
    nonzero_rows = ~np.all(rows == 0, axis=1)
    rows, preim = rows[nonzero_rows], preim[nonzero_rows]
    if len(rows) + 1 != spec.cardinality // subgroup.order:
        raise InvariantError("image size does not match the kernel index")
    if len(rows) << d > _CANDIDATE_BUDGET:
        raise ResourceLimitError(
            f"minima candidate enumeration too large in dimension {d}"
        )

    # expand each row by the sign selections that keep max-norm <= 1
    cand_rows: list[np.ndarray] = []
    cand_pre: list[np.ndarray] = []
    cand_sel: list[np.ndarray] = []
    alt = np.where(rows > 0, rows - m_den, rows + m_den)
    for bits in range(1 << d):
        sel = np.array([(bits >> j) & 1 for j in range(d)], dtype=bool)
        if len(rows):
            valid = ~np.any(sel[None, :] & (rows == 0), axis=1)
            chosen = np.where(sel[None, :], alt, rows)[valid]
            cand_rows.append(chosen)
            cand_pre.append(preim[valid])
            cand_sel.append(np.full(valid.sum(), bits, dtype=np.int64))
    unit_rows = np.eye(d, dtype=np.int64) * m_den
    cand_rows.append(unit_rows)
    cand_pre.append(np.zeros(d, dtype=np.int64))
    cand_sel.append(np.arange(d, dtype=np.int64) + (1 << d))
    all_rows = np.concatenate(cand_rows)
    all_pre = np.concatenate(cand_pre)
    all_sel = np.concatenate(cand_sel)

    norms = np.abs(all_rows).max(axis=1)
    order = np.lexsort((all_sel, all_pre, norms))
    all_rows, all_pre, all_sel, norms = (
        all_rows[order],
        all_pre[order],
        all_sel[order],
        norms[order],
    )

    chosen_rows: list[list[int]] = []
    lambdas: list[Fraction] = []
    vectors: list[tuple[Fraction, ...]] = []
    preimages: list[GroupElement] = []
    available = np.ones(len(all_rows), dtype=bool)
    while len(chosen_rows) < d:
        if not chosen_rows:
            independent = available
        else:
            basis = _integer_nullspace(chosen_rows, d)
            if not basis:
                raise InvariantError("null space vanished before reaching rank d")
            peak = max(abs(v) for row in basis for v in row) or 1
            if peak * m_den * d < (1 << 62):
                nmat = np.array(basis, dtype=np.int64).T
                dots = all_rows @ nmat
            else:
                nmat = np.array(basis, dtype=object).T
                dots = all_rows.astype(object) @ nmat
            independent = available & np.any(dots != 0, axis=1)
        hits = np.nonzero(independent)[0]
        if not len(hits):
            raise InvariantError("candidate enumeration cannot reach rank d")
        pick = int(hits[0])
        available[pick] = False
        chosen_rows.append([int(v) for v in all_rows[pick]])
        lambdas.append(Fraction(int(norms[pick]), m_den))
        vectors.append(tuple(Fraction(int(v), m_den) for v in all_rows[pick]))
        preimages.append(spec.element_at(int(all_pre[pick])))

    return replace(
        frame,
        lambdas=tuple(lambdas),
        vectors=tuple(vectors),
        preimages=tuple(preimages),
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

    @property
    def is_symmetric(self) -> bool:
        return all(lo == -hi for lo, hi in self.bounds)


def materialize(
    cp: CosetProgression, cap: int = DEFAULT_ENUMERATION_CAP
) -> GroupSet:
    """The underlying element set, built layer by layer with dedup."""
    spec = cp.spec
    spec.require_enumerable(cap)
    current = GroupSet(spec, spec.add_scalar(cp.subgroup.indices, cp.base.index))
    for g, (lo, hi) in zip(cp.generators, cp.bounds):
        multiples = GroupSet.from_elements(
            [spec.element([l * c for c in g.coords]) for l in range(lo, hi + 1)]
        )
        current = sumset(current, multiples)
    return current


def properness_check(
    cp: CosetProgression, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Proper iff every formal sum is distinct: count equals the formal size."""
    return materialize(cp, cap).size == cp.formal_size


def to_one_sided(cp: CosetProgression) -> CosetProgression:
    """Shift the base so every coefficient range starts at zero."""
    base = cp.base
    for g, (lo, _) in zip(cp.generators, cp.bounds):
        base = base + cp.spec.element([lo * c for c in g.coords])
    return CosetProgression(
        spec=cp.spec,
        base=base,
        generators=cp.generators,
        bounds=tuple((0, hi - lo) for lo, hi in cp.bounds),
        subgroup=cp.subgroup,
        proper=cp.proper,
    )


@dataclass(frozen=True, eq=False)
class BohrExtraction:
    """A coset progression inside a Bohr set, with its extraction checks.

    ``minima`` is None for the whole group, the Bohr set of an empty Phi.
    """

    progression: CosetProgression
    minima: MinimaReport | None
    checks: tuple[BoundCheck, ...]


def progression_from_minima(spec_b: BohrSpec, minima: MinimaReport) -> CosetProgression:
    """P + H with ranges L_j = floor(rho / (d lambda_j)); ``proper`` is left False.

    Zero-range generators contribute nothing to the set; dropping them
    keeps the reported dimension equal to what the progression spans (the
    size bound still uses the full minima dimension d).
    """
    d = minima.dimension
    generators = []
    bounds = []
    for g, lam in zip(minima.preimages, minima.lambdas):
        l_j = math.floor(spec_b.rho / (d * lam))
        if l_j >= 1:
            generators.append(g)
            bounds.append((-l_j, l_j))
    return CosetProgression(
        spec=spec_b.spec,
        base=spec_b.spec.zero(),
        generators=tuple(generators),
        bounds=tuple(bounds),
        subgroup=minima.subgroup,
        proper=False,
    )


def extraction_checks(
    spec_b: BohrSpec,
    minima: MinimaReport,
    cp: CosetProgression,
    bset: GroupSet,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BohrExtraction:
    """Set the proper flag of ``cp`` and check Minkowski's second theorem,
    containment in the Bohr set ``bset`` of ``spec_b``, properness by
    counting and the exact size lower bound (rho/d)^d |G|; a failing check
    is returned, never raised."""
    rho = spec_b.rho
    d = minima.dimension
    realized = materialize(cp, cap)
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


def progression_from_bohr(
    spec_b: BohrSpec, cap: int = DEFAULT_ENUMERATION_CAP, bset: GroupSet | None = None
) -> BohrExtraction:
    """Extract a proper coset progression P + H inside B(Gamma, rho).

    ``bset`` is the Bohr set, built here unless the caller has it.  Every
    extraction check is a guarantee: a failure raises InvariantError.
    """
    rho = spec_b.rho
    if not Fraction(0) < rho < Fraction(1, 4):
        raise DomainError("extraction requires 0 < rho < 1/4")
    if not spec_b.chars:
        raise DomainError("extraction requires at least one character")
    minima = successive_minima(spec_b.chars, cap)
    if bset is None:
        bset = bohr_set(spec_b, cap)
    extraction = extraction_checks(
        spec_b, minima, progression_from_minima(spec_b, minima), bset, cap
    )
    for check in extraction.checks:
        if not check.passed:
            raise InvariantError(f"guaranteed property failed: {check.line()}")
    return extraction
