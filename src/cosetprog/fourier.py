"""Fourier analysis of indicator functions on finite abelian groups.

Transforms use the normalized counting measure: f^(gamma) = E_x f(x) gamma(x),
so the coefficient at the trivial character is the density of the set.
Transforms are floating point with a relative tolerance; every containment
that matters downstream is re-checked exactly elsewhere, so the tolerance
only governs spectrum membership (a guard band keeps borderline characters
in, which can only shrink the Bohr sets built from them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .checks import BoundCheck
from .errors import DomainError, StructureError
from .groups import Character, GroupElement, GroupSpec, _frozen, arg_numerators_over_group
from .sumsets import DoublingReport, GroupSet, doubling

TOLERANCE = 1e-9


class Spectrum:
    """The full table of Fourier coefficients of an indicator function."""

    __slots__ = ("spec", "set_size", "density", "values")

    def __init__(self, spec: GroupSpec, set_size: int, values: np.ndarray):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "set_size", int(set_size))
        object.__setattr__(self, "density", Fraction(int(set_size), spec.cardinality))
        object.__setattr__(self, "values", _frozen(np.asarray(values, dtype=complex)))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Spectrum is immutable")

    def value(self, gamma: Character) -> complex:
        if gamma.spec != self.spec:
            raise StructureError("character from a different group")
        return complex(self.values[gamma.index])

    def magnitude(self, gamma: Character) -> float:
        return abs(self.value(gamma))

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def plancherel_gap(self) -> float:
        return abs(float(np.sum(self.magnitudes**2)) - float(self.density))

    def validate(self) -> None:
        alpha = float(self.density)
        if self.plancherel_gap() > TOLERANCE * max(alpha, 1e-300):
            raise DomainError("Plancherel identity violated beyond tolerance")
        if abs(complex(self.values[0]) - alpha) > TOLERANCE * max(alpha, 1e-300):
            raise DomainError("trivial coefficient does not equal the density")
        if float(self.magnitudes.max(initial=0.0)) > alpha * (1 + TOLERANCE):
            raise DomainError("coefficient magnitude exceeds the density")


def indicator_transform(a: GroupSet) -> Spectrum:
    """Fourier transform of 1_A over the full dual group, by one inverse FFT.

    Indices are row-major in the group's orders, so the reshaped indicator's
    inverse FFT is E_x 1_A(x) gamma(x), normalisation and sign included.
    """
    spec = a.spec
    spec.require_enumerable()
    indicator = np.zeros(spec.cardinality)
    indicator[a.indices] = 1.0
    values = np.fft.ifftn(indicator.reshape(spec.orders)).ravel()
    return Spectrum(spec, a.size, values)


def inversion_values(spectrum: Spectrum) -> np.ndarray:
    """Reconstruct f(x) = sum_gamma f^(gamma) conj(gamma(x)) over all x."""
    return np.fft.fftn(spectrum.values.reshape(spectrum.spec.orders)).ravel()


_DIRECT_CONV_BUDGET = 200_000


def convolution_power_at(a: GroupSet, m: int, x: GroupElement) -> float:
    """The m-fold self-convolution of 1_A at x.

    Computed spectrally; on inputs small enough for direct m-fold tuple
    counting (m <= 4) the two routes are cross-checked against each other.
    A positive value certifies x in mA.
    """
    if m < 2:
        raise DomainError("convolution power needs m >= 2")
    if x.spec != a.spec:
        raise StructureError("evaluation point from a different group")
    spec = a.spec
    values = indicator_transform(a).values
    total = float(np.fft.fftn((values**m).reshape(spec.orders)).flat[x.index].real)
    if m <= 4 and a.size**m <= _DIRECT_CONV_BUDGET:
        count = _direct_tuple_count(a, m, x)
        direct = count / spec.cardinality ** (m - 1)
        if abs(direct - total) > TOLERANCE * max(1.0, abs(direct)):
            raise DomainError("spectral and direct convolution routes disagree")
    return total


def _direct_tuple_count(a: GroupSet, m: int, x: GroupElement) -> int:
    spec = a.spec
    partial = a.indices
    for _ in range(m - 2):
        partial = spec.add_pairwise(partial, a.indices).ravel()
    last = spec.add_pairwise(partial, a.indices).ravel()
    return int(np.count_nonzero(last == x.index))


@dataclass(frozen=True, eq=False)
class SpecThresholdSet:
    """Characters whose coefficient magnitude is at least rho * density: their
    ``indices``, ascending, and each one's coefficient ``magnitudes``."""

    spec: GroupSpec
    rho: float
    alpha: Fraction
    indices: np.ndarray
    magnitudes: np.ndarray

    @property
    def chars(self) -> tuple[Character, ...]:  # built on each access
        return self.spec.characters_of_rows(self.spec.decode(self.indices))


def spec_threshold(spectrum: Spectrum, rho: float | Fraction) -> SpecThresholdSet:
    """Threshold the spectrum at rho * density with a guard band.

    Values within relative ``TOLERANCE`` below the threshold are kept, so the
    output is a superset of the true threshold set; the output is closed
    under inversion and listed in lexicographic character order.
    """
    rho_f = float(rho)
    if not 0 < rho_f <= 1:
        raise DomainError("threshold rho must lie in (0, 1]")
    spec = spectrum.spec
    threshold = rho_f * float(spectrum.density) * (1 - TOLERANCE)
    keep = np.nonzero(spectrum.magnitudes >= threshold)[0]
    indices = np.unique(np.concatenate([keep, spec.negate_indices(keep)])).astype(np.int64)
    return SpecThresholdSet(
        spec=spec,
        rho=rho_f,
        alpha=spectrum.density,
        indices=_frozen(indices),
        magnitudes=_frozen(np.abs(spectrum.values[indices])),
    )


class Cube:
    """cube(Phi) = {sum_j eps_j phi_j : eps in {-1,0,1}^d}, a mask over the dual group.

    Characters join one at a time, each doing mask |= (mask + phi) |
    (mask - phi) in place, so ``mask.reshape(-1)`` is a view holding one entry
    per character of the group, in index order.  A dissociated Phi stays
    dissociated after adding gamma exactly when gamma is not yet in the cube;
    ``first_inside`` is the position of the first character that already was
    (None while Phi is dissociated).  Each entry also records the step and
    sign that first reached it, so a member can be written back as a pattern.
    """

    def __init__(self, spec: GroupSpec, characters: Sequence[Character] = ()):
        self.spec = spec
        self.chars: list[Character] = []
        self.first_inside: int | None = None
        self.mask = np.zeros(spec.orders, dtype=bool)
        self.mask[(0,) * spec.rank] = True
        # +(j+1) or -(j+1): first reached at step j by adding +phi_j or -phi_j
        self.via = np.zeros(spec.orders, dtype=np.int32)
        for gamma in characters:
            self.add(gamma)

    def __contains__(self, gamma: Character) -> bool:
        if gamma.spec != self.spec:
            raise StructureError("characters of different groups")
        return bool(self.mask[gamma.coords])

    def add(self, gamma: Character) -> None:
        if gamma in self and self.first_inside is None:
            self.first_inside = len(self.chars)
        axes = tuple(range(self.spec.rank))
        plus = np.roll(self.mask, gamma.coords, axes)
        minus = np.roll(self.mask, tuple(-c for c in gamma.coords), axes)
        step = len(self.chars) + 1
        self.via[plus & ~self.mask] = step
        self.via[minus & ~(self.mask | plus)] = -step
        self.mask |= plus | minus
        self.chars.append(gamma)

    def pattern(self, gamma: Character) -> tuple[int, ...]:
        """Signs eps with sum(eps_j phi_j) = gamma, for gamma in the cube."""
        eps = [0] * len(self.chars)
        x = gamma.coords
        while step := int(self.via[x]):
            j = abs(step) - 1
            eps[j] = 1 if step > 0 else -1
            x = tuple(
                (c - eps[j] * p) % n
                for c, p, n in zip(x, self.chars[j].coords, self.spec.orders)
            )
        return tuple(eps)

    def witness(self) -> tuple[int, ...] | None:
        """A vanishing pattern whose first non-zero sign is +1, or None.

        It writes the first character inside the cube of those before it
        as their combination.
        """
        k = self.first_inside
        if k is None:
            return None
        eps = list(self.pattern(self.chars[k]))
        eps[k] = -1
        sign = next(e for e in eps if e)
        return tuple(sign * e for e in eps)


def is_dissociated(characters: Sequence[Character]) -> bool:
    """True iff only the all-zero pattern solves sum(eps_j phi_j) = 0."""
    return dissociation_witness(characters) is None


def dissociation_witness(characters: Sequence[Character]) -> tuple[int, ...] | None:
    """A non-trivial vanishing pattern, or None if the set is dissociated."""
    chars = list(characters)
    return Cube(chars[0].spec, chars).witness() if chars else None


_TIE_GAP = 1e-12


def _magnitude_order(magnitudes: np.ndarray, alpha: float) -> np.ndarray:
    """Positions by descending magnitude, ties kept in position order.

    Along the descending order, a magnitude within _TIE_GAP * alpha of the
    one before it ties with it, so exact ties (gamma and -gamma, automorphic
    images) stay ties whatever the transform's last bits.  A fixed rounding
    grid would not do: a tied pair astride a grid point splits under noise
    far below the grid's spacing.
    """
    order = np.argsort(-magnitudes, kind="stable")
    drops = -np.diff(magnitudes[order], prepend=magnitudes[order[:1]])
    tie_class = np.cumsum(drops > _TIE_GAP * alpha)
    return order[np.lexsort((order, tie_class))]


def max_dissociated(threshold_set: SpecThresholdSet) -> tuple[Character, ...]:
    """Greedy maximal dissociated subset, scanned by descending magnitude.

    Ties (see _magnitude_order) are broken lexicographically on character
    coordinates, the order of the threshold set.  A character is kept when
    it lies outside the cube of those kept so far.  The result is maximal
    (nothing left in the threshold set can be added), though not
    necessarily of maximum cardinality.
    """
    spec = threshold_set.spec
    cube = Cube(spec)
    inside = cube.mask.reshape(-1)  # a view: it follows the cube as it grows
    order = _magnitude_order(threshold_set.magnitudes, float(threshold_set.alpha))
    for index in threshold_set.indices[order].tolist():
        if not inside[index]:
            cube.add(spec.character_at(index))
    return tuple(cube.chars)


@dataclass(frozen=True)
class ChangReport:
    holds: bool
    size: int
    bound: float


def chang_bound_check(
    a: GroupSet | Spectrum,
    rho: float | Fraction,
    phi: Sequence[Character],
) -> ChangReport:
    """Check |Phi| <= 2 rho^-2 log(1/density) for a dissociated Phi in Spec_rho."""
    spectrum = a if isinstance(a, Spectrum) else indicator_transform(a)
    if not is_dissociated(phi):
        raise DomainError("phi is not dissociated")
    rho_f = float(rho)
    threshold = rho_f * float(spectrum.density) * (1 - TOLERANCE)
    for gamma in phi:
        if spectrum.magnitude(gamma) < threshold:
            raise DomainError(f"{gamma!r} is below the rho-threshold")
    alpha = float(spectrum.density)
    bound = 0.0 if alpha >= 1 else 2.0 / rho_f**2 * math.log(1 / alpha)
    size = len(phi)
    return ChangReport(size <= bound + TOLERANCE * max(1.0, bound), size, bound)


@dataclass(frozen=True, eq=False)
class RieszFunction:
    """f(x) = sum_j c_j Re(omega_j phi_j(x)) with unit phases omega_j."""

    chars: tuple[Character, ...]
    coeffs: tuple[float, ...]
    phases: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.chars:
            raise DomainError("a Riesz function needs at least one character")
        if not len(self.chars) == len(self.coeffs) == len(self.phases):
            raise StructureError("chars, coeffs and phases must align")
        for w in self.phases:
            if abs(abs(complex(w)) - 1.0) > 1e-12:
                raise DomainError("phases must have unit modulus")

    @property
    def spec(self) -> GroupSpec:
        return self.chars[0].spec

    def evaluate_all(self) -> np.ndarray:
        """Values of f over the whole group, in element index order."""
        total = np.zeros(self.spec.cardinality, dtype=float)
        for gamma, c, w in zip(self.chars, self.coeffs, self.phases):
            t = arg_numerators_over_group(gamma)
            q = gamma.order()
            total += c * np.real(complex(w) * np.exp(2j * np.pi * t / q))
        return total


@dataclass(frozen=True)
class RieszMomentReport:
    mean_square: float
    coeff_half_sum: float
    expected_mean_square: float
    two_torsion_adjusted: bool
    identity_ok: bool
    exp_moment: float
    exp_bound: float
    bernstein_ok: bool


def riesz_moment_check(f: RieszFunction, t: float) -> RieszMomentReport:
    """Verify the mean-square identity and E e^{tf} <= e^{t^2 E f^2}.

    Both require the characters to be dissociated; a non-dissociated input
    is rejected since either can then fail.  The mean square equals
    (1/2) sum c_j^2 whenever every character has order above 2; a real
    (order <= 2) character contributes c^2 (1 + Re(omega^2)) / 2 instead,
    since its square is the trivial character.  The check compares against
    the exact value; ``two_torsion_adjusted`` records when the nominal
    half-sum was corrected.
    """
    if not is_dissociated(f.chars):
        raise DomainError("the characters of the Riesz function are not dissociated")
    values = f.evaluate_all()
    mean_square = float(np.mean(values**2))
    half_sum = 0.5 * float(sum(c * c for c in f.coeffs))
    expected = 0.0
    for gamma, c, w in zip(f.chars, f.coeffs, f.phases):
        if gamma.order() <= 2:
            expected += c * c * (1.0 + (complex(w) ** 2).real) / 2.0
        else:
            expected += c * c / 2.0
    identity_ok = abs(mean_square - expected) <= TOLERANCE * max(1.0, abs(expected))
    exp_moment = float(np.mean(np.exp(t * values)))
    exp_bound = math.exp(t * t * mean_square)
    bernstein_ok = exp_moment <= exp_bound * (1 + TOLERANCE)
    return RieszMomentReport(
        mean_square,
        half_sum,
        expected,
        abs(expected - half_sum) > TOLERANCE * max(1.0, half_sum),
        identity_ok,
        exp_moment,
        exp_bound,
        bernstein_ok,
    )


@dataclass(frozen=True)
class BohrSpec:
    """A Bohr set description: characters plus an exact rational radius."""

    spec: GroupSpec
    chars: tuple[Character, ...]
    rho: Fraction

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise DomainError("Bohr radius must be positive")
        for c in self.chars:
            if c.spec != self.spec:
                raise StructureError("character from a different group")

    @property
    def dimension(self) -> int:
        return len(self.chars)


@dataclass(frozen=True, eq=False)
class BogolyubovReport:
    """Spectral localization of 2A-2A: a Bohr description plus its bound checks."""

    doubling: DoublingReport
    alpha: Fraction
    threshold_rho: float
    gamma_raw: SpecThresholdSet
    phi: tuple[Character, ...]
    bohr: BohrSpec
    l4_sum: float
    l4_lower: float
    dim_bound: float
    radius_lower: float
    checks: tuple[BoundCheck, ...]


def bogolyubov_threshold(spectrum: Spectrum, k: Fraction) -> SpecThresholdSet:
    """The threshold set at rho = 1/(2 sqrt K)."""
    return spec_threshold(spectrum, 1.0 / (2.0 * math.sqrt(float(k))))


def bogolyubov_report(
    dbl: DoublingReport,
    spectrum: Spectrum,
    tset: SpecThresholdSet,
    phi: Sequence[Character],
) -> BogolyubovReport:
    """The radius 1/(6 |Phi|) for a Phi chosen inside ``tset``, and the
    dimension, radius and fourth-moment checks; none of them raises.

    An empty Phi gives the Bohr set G whatever the radius, so its radius
    lower bound is 0 and the radius check is vacuous.  For a nonempty Phi
    the radius 1/(6 d) is at least 1/(48 K log(1/alpha)) = 1/(6 dim_bound)
    exactly when d <= dim_bound, the dimension check.
    """
    k = float(dbl.k)
    alpha = spectrum.density
    d = len(phi)
    bohr = BohrSpec(spectrum.spec, tuple(phi), Fraction(1, 6 * max(d, 1)))
    l4_sum = float(np.sum(spectrum.magnitudes**4))
    l4_lower = float(alpha) ** 3 / k
    logterm = 0.0 if alpha >= 1 else math.log(1 / float(alpha))
    dim_bound = 8.0 * k * logterm
    radius_lower = 0.0 if logterm == 0 or d == 0 else 1.0 / (48.0 * k * logterm)
    checks = (
        BoundCheck.make("spectral_dimension",
                        d <= dim_bound + TOLERANCE * max(1.0, dim_bound), d, dim_bound),
        BoundCheck.make("spectral_radius", float(bohr.rho) >= radius_lower * (1 - TOLERANCE),
                        float(bohr.rho), radius_lower),
        BoundCheck.make("fourth_moment_lower", l4_sum >= l4_lower * (1 - TOLERANCE),
                        l4_sum, l4_lower),
    )
    return BogolyubovReport(
        doubling=dbl,
        alpha=alpha,
        threshold_rho=tset.rho,
        gamma_raw=tset,
        phi=bohr.chars,
        bohr=bohr,
        l4_sum=l4_sum,
        l4_lower=l4_lower,
        dim_bound=dim_bound,
        radius_lower=radius_lower,
        checks=checks,
    )


def bogolyubov_bohr(a: GroupSet) -> BogolyubovReport:
    """Build the Bohr description whose set is guaranteed to land in 2A-2A.

    Thresholds the spectrum at 1/(2 sqrt K) and keeps a greedy maximal
    dissociated subset Phi; ``bogolyubov_report`` derives the rest.  An
    empty Phi means the Bohr set is the whole group.  The containment
    itself is exact and is re-verified by callers.
    """
    if not a:
        raise DomainError("the empty set has no Bohr localization")
    dbl = doubling(a)
    spectrum = indicator_transform(a)
    tset = bogolyubov_threshold(spectrum, dbl.k)
    return bogolyubov_report(dbl, spectrum, tset, max_dissociated(tset))
