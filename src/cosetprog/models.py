"""Constructive model finding: shrink a set into a smaller group.

Each shrink step locates a character on which the difference set
concentrates, reads off an interval containing the image of the set, and
rebuilds the set inside ker(psi) x Z/(q-1).  Every emitted map is verified
mechanically as a Freiman s-isomorphism; nothing is trusted from the
construction.  The search is a direct exhaustive spectrum scan, which at
this scale is stronger than the existential guarantee it replaces; the
predicted concentration quality is still recorded for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InvariantError
from .fourier import _magnitude_order, indicator_transform
from .groups import (
    DEFAULT_ENUMERATION_CAP,
    Character,
    GroupElement,
    GroupSpec,
    Homomorphism,
    kernel_of_characters,
    subgroup_decomposition,
)
from .freiman import FreimanMap, compose, is_freiman_iso
from .sumsets import GroupSet, difference_set, doubling, iterated_sumset


@dataclass(frozen=True)
class ModelStepParams:
    """Parameters governing one shrink step (predictions are informational)."""

    s: int
    delta: Fraction
    epsilon: Fraction
    kappa: Fraction
    eta_predicted: float


def default_delta(s: int) -> Fraction:
    """Interval-length fraction: within (0, 1/20) and at most 1/(4s)."""
    return min(Fraction(1, 4 * s), Fraction(1, 21))


def step_params(s: int, delta: Fraction, k: Fraction, d_density: Fraction) -> ModelStepParams:
    epsilon = delta * delta / (k * k)
    kappa = Fraction(1, 4) / (k * k)
    if d_density >= 1 or d_density <= 0:
        eta = 0.0
    else:
        a = float(d_density)
        eta = 9.0 / float(k) ** 2 * a ** (1.0 / (2.0 * float(k) ** 2)) * math.log(1 / a)
    return ModelStepParams(s, delta, epsilon, kappa, eta)


@dataclass(frozen=True, eq=False)
class ConcentrationCandidate:
    gamma: Character
    q: int
    start: int
    length: int
    magnitude: float
    mass_window: tuple[int, int]
    params: ModelStepParams


def _min_enclosing_arc(values: np.ndarray, q: int) -> tuple[int, int]:
    """Smallest cyclic arc [b, b+l] containing all values; smallest b on ties."""
    vals = np.unique(values)
    if len(vals) == q:
        return 0, q - 1
    gaps = np.diff(np.concatenate([vals, vals[:1] + q]))
    max_gap = int(gaps.max())
    starts = [int(vals[(i + 1) % len(vals)]) % q for i in np.nonzero(gaps == max_gap)[0]]
    return min(starts), q - max_gap


def find_concentrating_character(
    a: GroupSet,
    delta: Fraction,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ConcentrationCandidate | None:
    """Scan characters by descending |1_D^| for one concentrating the set.

    A candidate qualifies when (i) some cyclic window of length < delta*q
    holds all but at most |D|/(4K^2) of the difference-set image under the
    induced map to Z/q, and (ii) the whole image of A then fits inside an
    arc no longer than that window.  Returns the first hit in scan order,
    or None.  Magnitude ties (see fourier._magnitude_order) go to the lower
    index.
    """
    if not a:
        raise DomainError("cannot analyze the empty set")
    if not Fraction(0) < delta < Fraction(1, 2):
        raise DomainError("delta must lie in (0, 1/2)")
    spec = a.spec
    spec.require_enumerable(cap)
    dbl = doubling(a)
    d_set = difference_set(a)
    params = step_params(0, delta, dbl.k, Fraction(d_set.size, spec.cardinality))
    spectrum = indicator_transform(d_set, cap)
    mags = spectrum.magnitudes
    ranked = (_magnitude_order(mags[1:], float(spectrum.density)) + 1).tolist()
    allowed_out = params.kappa * d_set.size
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
            params=params,
        )
    return None


@dataclass(frozen=True, eq=False)
class ModelStage:
    """One verified shrink step: set_before -> set_after via ``map``."""

    kind: str  # "spectral" or "quotient"
    set_before: GroupSet
    set_after: GroupSet
    map: FreimanMap
    gamma: Character | None = None
    q: int | None = None
    interval: tuple[int, int] | None = None
    translation: GroupElement | None = None


def shrink_model_step(
    a: GroupSet,
    s: int,
    gamma: Character,
    q: int,
    interval: tuple[int, int],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ModelStage:
    """Rebuild A inside ker(psi) x Z/(q-1) and verify the s-isomorphism.

    The interval [b, b+l] must contain psi(A) and satisfy l < q/(4s).  The
    set is translated so the interval starts at 0; each element is written
    h + lambda*z with z the first preimage of 1, and mapped to
    (h, lambda mod q-1).  Verification failure raises InvariantError since
    the construction guarantees an s-isomorphism.
    """
    b, l = interval
    if q < 2:
        raise DomainError("the induced map must have order at least 2")
    if 4 * s * l >= q:
        raise DomainError(f"interval length {l} is not below q/(4s) = {q}/{4 * s}")
    if gamma.order() != q:
        raise DomainError("q does not equal the character order")
    spec = a.spec
    spec.require_enumerable(cap)
    all_coords = spec.decode(np.arange(spec.cardinality, dtype=np.int64))
    psi_all = gamma.arg_numerators(all_coords)
    t_candidates = np.nonzero(psi_all == b % q)[0]
    if not len(t_candidates):
        raise InvariantError("psi is not surjective onto Z/q")
    t_elem = spec.element_at(int(t_candidates[0]))
    shifted = spec.add_scalar(a.indices, (-t_elem).index)
    lam = gamma.arg_numerators(spec.decode(shifted))
    if int(lam.max(initial=0)) > l:
        raise DomainError("the given interval does not contain psi(A)")
    kernel = kernel_of_characters(spec, [gamma], cap)
    z_idx = int(np.nonzero(psi_all == 1 % q)[0][0])
    z_coords = np.array(spec.coords_of(z_idx), dtype=np.int64)
    decomp = subgroup_decomposition(kernel, cap)
    h_idx = spec.encode(spec.decode(shifted) - lam[:, None] * z_coords[None, :])
    if q >= 3:
        model_spec = GroupSpec(decomp.orders + (q - 1,))
        images = [
            decomp.to_model[int(h)] * (q - 1) + int(lv) % (q - 1)
            for h, lv in zip(h_idx, lam)
        ]
    else:
        model_spec = decomp.spec
        images = [decomp.to_model[int(h)] for h in h_idx]
    table = {int(orig): img for orig, img in zip(a.indices, images)}
    theta = FreimanMap(a, model_spec, table, s)
    report = is_freiman_iso(theta, s)
    if not report.ok:
        raise InvariantError("constructed shrink map failed s-isomorphism check")
    return ModelStage(
        kind="spectral",
        set_before=a,
        set_after=theta.image(),
        map=theta,
        gamma=gamma,
        q=q,
        interval=(b % q, l),
        translation=t_elem,
    )


@dataclass(frozen=True, eq=False)
class ModelTrace:
    """A verified chain of shrink steps with its composite map."""

    s: int
    initial_set: GroupSet
    stages: tuple[ModelStage, ...]
    final_set: GroupSet
    composite: FreimanMap
    density_initial: Fraction
    density_final: Fraction
    prop_density_bound: float
    meets_density_bound: bool

    @property
    def is_identity(self) -> bool:
        return not self.stages


def _assemble_trace(
    s: int, initial: GroupSet, stages: Sequence[ModelStage], k: Fraction
) -> ModelTrace:
    current = initial
    composite = FreimanMap.identity(initial, s)
    for stage in stages:
        composite = compose(stage.map, composite)
        current = stage.set_after
    if stages:
        report = is_freiman_iso(composite, s)
        if not report.ok:
            raise InvariantError("composite map failed s-isomorphism check")
    bound = math.exp(-10.0 * float(k) ** 2 * math.log(10.0 * s * float(k)))
    density_final = Fraction(current.size, current.spec.cardinality)
    return ModelTrace(
        s=s,
        initial_set=initial,
        stages=tuple(stages),
        final_set=current,
        composite=composite,
        density_initial=Fraction(initial.size, initial.spec.cardinality),
        density_final=density_final,
        prop_density_bound=bound,
        meets_density_bound=float(density_final) >= bound,
    )


def minimize_model(
    a: GroupSet,
    s: int,
    target_density: Fraction = Fraction(1),
    delta: Fraction | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ModelTrace:
    """Iterate shrink steps while the group strictly decreases.

    Stops when no concentrating character exists, when the density target
    is met, or when a step fails to shrink the group.  The final density is
    compared against the theoretical guarantee for minimal models, purely
    as a recorded observation: the loop certifies what it builds, not
    global minimality.
    """
    if s < 2:
        raise DomainError("model order must be at least 2")
    if not a:
        raise DomainError("cannot model the empty set")
    delta_eff = min(delta if delta is not None else default_delta(s), Fraction(1, 4 * s))
    if not Fraction(0) < delta_eff < Fraction(1, 20):
        raise DomainError("delta must lie in (0, 1/20)")
    k = doubling(a).k
    stages: list[ModelStage] = []
    current = a
    while Fraction(current.size, current.spec.cardinality) < target_density:
        cand = find_concentrating_character(current, delta_eff, cap)
        if cand is None:
            break
        stage = shrink_model_step(
            current, s, cand.gamma, cand.q, (cand.start, cand.length), cap
        )
        if stage.set_after.spec.cardinality >= current.spec.cardinality:
            break
        stages.append(stage)
        current = stage.set_after
    return _assemble_trace(s, a, stages, k)


def f2_shrink(a: GroupSet, cap: int = DEFAULT_ENUMERATION_CAP) -> ModelTrace:
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
        rows = []
        for j in range(spec.rank):
            if j == pivot:
                continue
            row = [0] * spec.rank
            row[j] = 1
            row[pivot] = x[j]
            rows.append(tuple(row))
        target = GroupSpec((2,) * (spec.rank - 1))
        if not rows:  # quotient of F_2 itself: everything maps to the point
            rows = [(0,) * spec.rank]
        quotient = Homomorphism(spec, target, tuple(rows))
        quotient.validate()
        table = {
            int(i): int(v)
            for i, v in zip(current.indices, quotient.apply_indices(current.indices))
        }
        phi = FreimanMap(current, target, table, 2)
        report = is_freiman_iso(phi, 2)
        if not report.ok:
            raise InvariantError("two-torsion quotient failed 2-isomorphism check")
        stage = ModelStage(
            kind="quotient",
            set_before=current,
            set_after=phi.image(),
            map=phi,
        )
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
    arr = np.array(vals, dtype=np.int64)
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
    span = vals[-1] - vals[0]
    host = GroupSpec((4 * span + 5,))
    hosted = GroupSet.from_coords(host, [(v - vals[0],) for v in vals])
    table = {
        host.index_of((v - vals[0],)): spec.index_of((v % m,)) for v in vals
    }
    projection = FreimanMap(hosted, spec, table, 2)
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
