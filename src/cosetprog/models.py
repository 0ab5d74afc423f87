"""Constructive model finding: shrink a set into a smaller group.

Each shrink step locates a character on which the difference set
concentrates, reads off an interval [b, b+l] containing the image of the
set, and rebuilds the set inside ker(psi) x Z/(s*l+1), the smallest cyclic
factor that keeps s-fold sums apart, so a chain takes one step per
concentrating character.  Every emitted map is verified
mechanically as a Freiman s-isomorphism; nothing is trusted from the
construction.  The search is a direct exhaustive spectrum scan, which at
this scale is stronger than the existential guarantee it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InvariantError
from .fourier import _magnitude_order, indicator_transform
from .groups import (
    Character,
    GroupSpec,
    Subgroup,
    arg_numerators_over_group,
    subgroup_decomposition,
)
from .freiman import FreimanMap, compose, is_freiman_iso
from .sumsets import GroupSet, difference_set, doubling, iterated_sumset

# the model map must be a Freiman 8-isomorphism to induce a 2-isomorphism on 2A - 2A
MODEL_ORDER = 8


def default_delta(s: int) -> Fraction:
    """Interval-length fraction: within (0, 1/20) and at most 1/(4s)."""
    return min(Fraction(1, 4 * s), Fraction(1, 21))


@dataclass(frozen=True, eq=False)
class ConcentrationCandidate:
    gamma: Character
    q: int
    start: int
    length: int
    magnitude: float
    mass_window: tuple[int, int]
    kappa: Fraction  # the share of D's image allowed outside the window


def _min_enclosing_arc(values: np.ndarray, q: int) -> tuple[int, int]:
    """Smallest cyclic arc [b, b+l] containing all values; smallest b on ties."""
    vals = np.unique(values)
    if len(vals) == q:
        return 0, q - 1
    gaps = np.diff(np.concatenate([vals, vals[:1] + q]))
    max_gap = int(gaps.max())
    starts = [int(vals[(i + 1) % len(vals)]) % q for i in np.nonzero(gaps == max_gap)[0]]
    return min(starts), q - max_gap


def _magnitude_floor(alpha_d: float, kappa: Fraction, delta: Fraction) -> float:
    """The least |1_D^(gamma)| of a qualifying gamma (find_concentrating_character)."""
    return alpha_d * ((1 - float(kappa)) * math.cos(math.pi * float(delta)) - float(kappa))


def find_concentrating_character(
    a: GroupSet, delta: Fraction
) -> ConcentrationCandidate | None:
    """Scan characters by descending |1_D^| for one concentrating the set.

    A candidate qualifies when (i) some cyclic window of length < delta*q
    holds all but at most |D|/(4K^2) of the difference-set image under the
    induced map to Z/q, and (ii) the whole image of A then fits inside an
    arc no longer than that window.  Returns the first hit in scan order,
    or None.  Magnitude ties (see fourier._magnitude_order) go to the lower
    index.

    Only characters above a magnitude floor can qualify.  Condition (i)
    puts at least (1-kappa)|D| points of D's image in an arc of angle less
    than 2 pi delta; turned so the arc is centred on 1, each of them has
    real part above cos(pi delta), and each of the at most kappa|D| others
    at least -1.  So a qualifying gamma has

        |1_D^(gamma)| >= alpha_D ((1 - kappa) cos(pi delta) - kappa),

    alpha_D = |D|/|G|, about alpha_D/2 for kappa <= 1/4 and delta <= 1/20.
    Characters below the floor (less 1e-9 alpha_D for the transform's
    rounding) are dropped from the scan, which leaves the first hit as it
    is and spares the final scan, which finds nothing, most of the group.
    """
    if not a:
        raise DomainError("cannot analyze the empty set")
    if not Fraction(0) < delta < Fraction(1, 2):
        raise DomainError("delta must lie in (0, 1/2)")
    spec = a.spec
    spec.require_enumerable()
    kappa = Fraction(1, 4) / doubling(a).k ** 2
    d_set = difference_set(a)
    spectrum = indicator_transform(d_set)
    mags = spectrum.magnitudes
    alpha_d = float(spectrum.density)
    floor = _magnitude_floor(alpha_d, kappa, delta) - 1e-9 * alpha_d
    ranked = _magnitude_order(mags[1:], alpha_d) + 1
    ranked = ranked[mags[ranked] >= floor].tolist()
    allowed_out = kappa * d_set.size
    d_coords = d_set.coords()
    a_coords = a.coords()
    for ci in ranked:
        gamma = spec.character_at(ci)
        q = gamma.order()
        l_max = (delta.numerator * q - 1) // delta.denominator  # largest l < delta*q
        if l_max < 0:
            continue
        psi_d = gamma.arg_numerators(d_coords)
        hist = np.bincount(psi_d, minlength=q)
        needed = d_set.size - allowed_out  # window mass must reach this
        need_count = math.ceil(needed)
        prefix = np.concatenate([[0], np.cumsum(np.concatenate([hist, hist]))])
        ends = np.searchsorted(prefix, prefix[:q] + need_count, side="left")
        widths = ends - np.arange(q)
        widths = np.where(ends <= 2 * q, widths, q + 1)
        w_best = int(widths.min())
        if w_best - 1 > l_max:
            continue
        psi_a = gamma.arg_numerators(a_coords)
        b_a, l_a = _min_enclosing_arc(psi_a, q)
        if l_a > w_best - 1:
            continue
        b_d = int(np.nonzero(widths == w_best)[0][0])
        return ConcentrationCandidate(
            gamma=gamma,
            q=q,
            start=b_a,
            length=l_a,
            magnitude=float(mags[ci]),
            mass_window=(b_d, w_best - 1),
            kappa=kappa,
        )
    return None


@dataclass(frozen=True, eq=False)
class ModelStage:
    """One shrink step: set_before -> set_after via ``map``.

    A spectral stage's search choice is (gamma, q, interval), from which
    ``shrink_model_step`` derives the map; a quotient stage (``f2_shrink``)
    has none.  A stage read from a certificate holds only the choice, and
    its ``map`` is None until ``verify_certificate`` derives it.
    """

    map: FreimanMap | None = None
    gamma: Character | None = None
    q: int | None = None
    interval: tuple[int, int] | None = None

    @property
    def set_before(self) -> GroupSet:
        return self.map.domain

    @cached_property
    def set_after(self) -> GroupSet:
        return self.map.image()


def shrink_model_step(
    a: GroupSet,
    s: int,
    gamma: Character,
    q: int,
    interval: tuple[int, int],
) -> ModelStage:
    """Rebuild A inside ker(psi) x Z/m, m = s*l + 1, and verify the s-isomorphism.

    The interval [b, b+l] must contain psi(A) and satisfy l < q/(4s).  The
    set is translated so the interval starts at 0; each element is written
    h + lambda*z with z the first preimage of 1 and lambda in [0, l], and
    mapped to (h, lambda mod m).  Sums of s lambdas lie in [0, s*l], and
    s*l < m and s*l < q, so equal s-fold sums on either side match exactly:
    the map is an s-isomorphism for every m > s*l, and m = s*l + 1 is the
    smallest.  When m = 1 (l = 0, which a q = 2 character forces) the image
    lies in the kernel alone.  A choice that breaks these conditions, or a
    gamma from another group, is a DomainError; verification failure raises
    InvariantError since the construction guarantees an s-isomorphism.
    """
    b, l = interval
    if gamma.spec != a.spec:
        raise DomainError(
            f"gamma is a character of {gamma.spec}, not of the set's group {a.spec}"
        )
    if q < 2:
        raise DomainError("the induced map must have order at least 2")
    if 4 * s * l >= q:
        raise DomainError(f"interval length {l} is not below q/(4s) = {q}/{4 * s}")
    if gamma.order() != q:
        raise DomainError("q does not equal the character order")
    spec = a.spec
    spec.require_enumerable()
    psi_all = arg_numerators_over_group(gamma)
    t_candidates = np.nonzero(psi_all == b % q)[0]
    if not len(t_candidates):
        raise InvariantError("psi is not surjective onto Z/q")
    t_elem = spec.element_at(int(t_candidates[0]))
    shifted = spec.add_scalar(a.indices, (-t_elem).index)
    lam = gamma.arg_numerators(spec.decode(shifted))
    if int(lam.max(initial=0)) > l:
        raise DomainError("the given interval does not contain psi(A)")
    kernel = Subgroup(spec, (), np.flatnonzero(psi_all == 0))  # decomposition reads no generators
    z_idx = int(np.nonzero(psi_all == 1 % q)[0][0])
    z_coords = np.array(spec.coords_of(z_idx), dtype=np.int64)
    decomp = subgroup_decomposition(kernel)
    h_idx = spec.encode(spec.decode(shifted) - lam[:, None] * z_coords[None, :])
    h_model = [decomp.to_model[h] for h in h_idx.tolist()]
    m = s * l + 1
    if m >= 2:
        model_spec = GroupSpec(decomp.orders + (m,))
        images = [h * m + lv for h, lv in zip(h_model, lam.tolist())]
    else:
        model_spec = decomp.spec
        images = h_model
    table = dict(zip(a.indices.tolist(), images))
    theta = FreimanMap(a, model_spec, table)
    report = is_freiman_iso(theta, s)
    if not report.ok:
        raise InvariantError("constructed shrink map failed s-isomorphism check")
    return ModelStage(map=theta, gamma=gamma, q=q, interval=(b % q, l))


@dataclass(frozen=True, eq=False)
class ModelTrace:
    """A chain of shrink steps with the densities it reaches."""

    s: int
    initial_set: GroupSet
    stages: tuple[ModelStage, ...]
    final_set: GroupSet
    density_initial: Fraction
    density_final: Fraction
    prop_density_bound: float

    @property
    def is_identity(self) -> bool:
        return not self.stages

    @cached_property
    def composite(self) -> FreimanMap:
        composite = FreimanMap.identity(self.initial_set)
        for stage in self.stages:
            composite = compose(stage.map, composite)
        return composite


def model_trace(
    s: int, initial: GroupSet, stages: Sequence[ModelStage], k: Fraction
) -> ModelTrace:
    """The final set and densities of a chain, and the density bound for K."""
    final = stages[-1].set_after if stages else initial
    return ModelTrace(
        s=s,
        initial_set=initial,
        stages=tuple(stages),
        final_set=final,
        density_initial=Fraction(initial.size, initial.spec.cardinality),
        density_final=Fraction(final.size, final.spec.cardinality),
        prop_density_bound=math.exp(-10.0 * float(k) ** 2 * math.log(10.0 * s * float(k))),
    )


def _assemble_trace(
    s: int, initial: GroupSet, stages: Sequence[ModelStage], k: Fraction
) -> ModelTrace:
    trace = model_trace(s, initial, stages, k)
    if stages and not is_freiman_iso(trace.composite, s).ok:
        raise InvariantError("composite map failed s-isomorphism check")
    return trace


def minimize_model(a: GroupSet, s: int) -> ModelTrace:
    """Iterate shrink steps while the group strictly decreases.

    Stops when no concentrating character exists, when the set fills its
    group, or when a step fails to shrink the group.  The final density is
    compared against the theoretical guarantee for minimal models, purely
    as a recorded observation: the loop certifies what it builds, not
    global minimality.
    """
    if s < 2:
        raise DomainError("model order must be at least 2")
    if not a:
        raise DomainError("cannot model the empty set")
    delta = default_delta(s)
    k = doubling(a).k
    stages: list[ModelStage] = []
    current = a
    while current.size < current.spec.cardinality:
        cand = find_concentrating_character(current, delta)
        if cand is None:
            break
        stage = shrink_model_step(current, s, cand.gamma, cand.q, (cand.start, cand.length))
        if stage.set_after.spec.cardinality >= current.spec.cardinality:
            break
        stages.append(stage)
        current = stage.set_after
    return _assemble_trace(s, a, stages, k)


def f2_shrink(a: GroupSet) -> ModelTrace:
    """Shrink a set in a two-torsion group down to at most K^4 |A| points.

    While the group is larger than K^4 |A| there must be a point outside
    2A - 2A; quotienting by it is a verified 2-isomorphism on A.
    """
    if not a:
        raise DomainError("cannot model the empty set")
    if any(n != 2 for n in a.spec.orders):
        raise DomainError("set does not live in a two-torsion group")
    k = doubling(a).k
    stages: list[ModelStage] = []
    current = a
    while True:
        spec = current.spec
        bound = k**4 * current.size
        if spec.cardinality <= bound:
            break
        d22 = iterated_sumset(current, 2, 2)
        outside = np.setdiff1d(
            np.arange(spec.cardinality, dtype=np.int64), d22.indices
        )
        if not len(outside):
            raise InvariantError(
                "no point outside 2A-2A although |G| exceeds K^4 |A|"
            )
        x = spec.coords_of(int(outside[0]))
        pivot = x.index(1)
        # the quotient by <x>: add x to each point whose pivot coordinate is
        # 1, then drop that coordinate (F_2 itself goes to the trivial group)
        target = GroupSpec((2,) * (spec.rank - 1))
        y = spec.decode(current.indices)
        y ^= np.outer(y[:, pivot], x)
        image = (
            target.encode(np.delete(y, pivot, axis=1)) if spec.rank > 1
            else np.zeros(current.size, dtype=np.int64)
        )
        phi = FreimanMap(current, target, dict(zip(current.indices.tolist(), image.tolist())))
        report = is_freiman_iso(phi, 2)
        if not report.ok:
            raise InvariantError("two-torsion quotient failed 2-isomorphism check")
        stage = ModelStage(map=phi)
        stages.append(stage)
        current = stage.set_after
    return _assemble_trace(2, a, stages, k)


@dataclass(frozen=True, eq=False)
class ZModelReport:
    """A set of integers modeled in the smallest admissible Z/m."""

    values: tuple[int, ...]
    modulus: int
    model: GroupSet
    assignment: tuple[tuple[int, int], ...]
    doubling: Fraction
    bound_value: float
    within_bound: bool


def z_model(values: Iterable[int]) -> ZModelReport:
    """Smallest m >= 2 whose reduction is a 2-isomorphism on the integers.

    Minimality is established by scanning m upward; for each m the
    divisibility test (no nonzero multiple of m inside 2A - 2A) and the
    residue test (2A values stay distinct mod m) are both run and must
    agree.  The winner is additionally re-verified as a 2-isomorphism by
    the fiber dynamic program, through a faithful embedding of the
    integers into a large cyclic group.  The size guarantee for large
    doubling is recorded but not enforced.
    """
    vals = sorted({int(v) for v in values})
    if not vals:
        raise DomainError("cannot model the empty set")
    # m and the doubling do not change under translation, so the arrays
    # hold A - min A, whose 4 * span + 5 host fits in int64
    span = vals[-1] - vals[0]
    if 4 * span + 5 >= 1 << 63:
        raise DomainError(
            f"the integer set spans {span}; its host group Z/(4*span+5) needs "
            "an order below 2^63"
        )
    shifted = [v - vals[0] for v in vals]
    arr = np.array(shifted, dtype=np.int64)
    two_a = np.unique((arr[:, None] + arr[None, :]).ravel())
    k = Fraction(len(two_a), len(vals))
    diffs = np.unique((two_a[:, None] - two_a[None, :]).ravel())
    nonzero = diffs[diffs != 0]
    m = 2
    while True:
        divisible = bool(len(nonzero)) and bool((nonzero % m == 0).any())
        distinct = len(np.unique(two_a % m)) == len(two_a)
        if divisible == distinct:
            raise InvariantError("divisibility and residue tests disagree")
        if distinct:
            break
        m += 1
    spec = GroupSpec((m,))
    residues = [v % m for v in vals]
    model = GroupSet.from_coords(spec, [(r,) for r in residues])
    host = GroupSpec((4 * span + 5,))
    hosted = GroupSet.from_coords(host, [(x,) for x in shifted])
    table = {host.index_of((x,)): spec.index_of((r,)) for x, r in zip(shifted, residues)}
    projection = FreimanMap(hosted, spec, table)
    if not is_freiman_iso(projection, 2).ok:
        raise InvariantError("reduction map failed the fiber 2-isomorphism check")
    bound = (
        100.0 * float(k) ** 6 * math.log(float(k)) * len(vals)
        if k > 1
        else 0.0
    )
    return ZModelReport(
        values=tuple(vals),
        modulus=m,
        model=model,
        assignment=tuple(zip(vals, residues)),
        doubling=k,
        bound_value=bound,
        within_bound=m <= bound,
    )
