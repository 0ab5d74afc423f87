"""Freiman homomorphism verification and transport of coset progressions.

A map is held as a set is: its domain's sorted index array and, aligned
with it, one array of image indices.  Applying, composing, restricting and
inverting maps are array operations, never a walk over the points.

The s-fold condition is checked through fibers of the induced map on sums:
phi is an s-homomorphism iff every multiset of s elements with the same sum
has the same image sum.  A layered dynamic program adds one element per
layer, so an s = 8 check costs a few dense passes instead of |A|^8 tuple
enumerations.  A layer is the set of distinct (partial sum, partial image
sum) pairs, sorted; a sum paired with two image sums is where the map fails.
When the domain's sums are dense in G, the homomorphism check and the map
induced on 2A - 2A keep a layer as an image array over G instead (the image
sum of each reached partial sum, -1 elsewhere), so no layer is sorted: while
no fiber has two image sums the array is the whole layer, and a scattered
image that disagrees with it is the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bohr import CosetProgression, materialize, to_one_sided
from .errors import DomainError, StructureError
from .groups import GroupElement, GroupSpec, _frozen, subgroup_closure
from .sumsets import GroupSet, iterated_sumset, mask_pays, pair_chunks


class FreimanMap:
    """A map defined on a finite set, claimed to respect s-fold sums.

    Like a ``GroupSet`` it is an index array: ``images[i]`` is the index in
    ``target`` of the image of ``domain.indices[i]``, so a lookup is one
    ``searchsorted`` over the sorted domain.  Instances are immutable.
    """

    __slots__ = ("domain", "target", "images")

    def __init__(self, domain: GroupSet, target: GroupSpec, images: np.ndarray):
        imgs = np.array(images, dtype=np.int64).ravel()
        if len(imgs) != domain.size:
            raise StructureError(f"{len(imgs)} image(s) for a domain of {domain.size} point(s)")
        if len(imgs) and (int(imgs.min()) < 0 or int(imgs.max()) >= target.cardinality):
            raise StructureError("image index out of range for the target group")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", _frozen(imgs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FreimanMap is immutable")

    @classmethod
    def identity(cls, domain: GroupSet) -> "FreimanMap":
        return cls(domain, domain.spec, domain.indices)

    @classmethod
    def translation(cls, domain: GroupSet, shift: GroupElement) -> "FreimanMap":
        if shift.spec != domain.spec:
            raise StructureError("translation element from a different group")
        return cls(domain, domain.spec, domain.spec.add_scalar(domain.indices, shift.index))

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.spec != self.domain.spec:
            raise StructureError("argument from a different group")
        return self.target.element_at(int(self.apply_indices(np.array([x.index]))[0]))

    def apply_indices(self, indices: np.ndarray) -> np.ndarray:
        """The image index of each domain point given by index."""
        idx = np.asarray(indices, dtype=np.int64)
        dom = self.domain.indices
        at = np.searchsorted(dom, idx)
        inside = at < len(dom)
        inside[inside] = dom[at[inside]] == idx[inside]
        if not inside.all():
            x = self.domain.spec.element_at(int(idx[~inside][0]))
            raise DomainError(f"{x!r} is outside the map's domain")
        return self.images[at]

    def image(self) -> GroupSet:
        return GroupSet(self.target, self.images)

    def is_injective(self) -> bool:
        return len(np.unique(self.images)) == self.domain.size

    def inverse(self) -> "FreimanMap":
        if not self.is_injective():
            raise DomainError("only injective maps can be inverted")
        order = np.argsort(self.images)
        image = GroupSet.from_sorted(self.target, self.images[order])
        return FreimanMap(image, self.domain.spec, self.domain.indices[order])

    def restrict(self, subset: GroupSet) -> "FreimanMap":
        if not subset.is_subset(self.domain):
            raise DomainError("restriction set is not inside the domain")
        return FreimanMap(subset, self.target, self.apply_indices(subset.indices))

    def __repr__(self) -> str:
        return f"FreimanMap({self.domain!r} -> {self.target})"


def compose(outer: FreimanMap, inner: FreimanMap) -> FreimanMap:
    """outer after inner; the inner image must lie in the outer domain."""
    if inner.target != outer.domain.spec:
        raise StructureError("maps are not composable: group mismatch")
    return FreimanMap(inner.domain, outer.target, outer.apply_indices(inner.images))


@dataclass(frozen=True)
class FiberWitness:
    """Two image values achieved by one sum; proof of a violated relation."""

    layer: int
    sum_index: int
    image_indices: tuple[int, ...]


@dataclass(frozen=True)
class HomReport:
    ok: bool
    witness: FiberWitness | None


def _signed_layers(
    phi: FreimanMap, pos: int, neg: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(elements, images) of the domain, pos times as they are, then neg negated."""
    if pos + neg < 1:
        raise DomainError("at least one fold is required")
    spec, tspec = phi.domain.spec, phi.target
    xs, us = phi.domain.indices, phi.images
    negated = (spec.negate_indices(xs), tspec.negate_indices(us))
    return [(xs, us)] * pos + [negated] * neg


def _fiber_pairs(
    phi: FreimanMap, pos: int, neg: int, stop_on_violation: bool = False
) -> tuple[np.ndarray, np.ndarray, FiberWitness | None]:
    """All distinct (sum, image-sum) pairs over the (pos, neg)-fold signed combinations.

    With stop_on_violation the DP stops at the first layer where one sum has
    two image sums, and returns with the pairs the smallest such sum and its
    image sums, sorted.
    """
    spec, tspec = phi.domain.spec, phi.target
    t_card = tspec.cardinality
    layers = _signed_layers(phi, pos, neg)
    sums, images = layers[0]
    for depth, (xs, us) in enumerate(layers[1:], start=2):
        keys = [np.empty(0, dtype=np.int64)]  # an empty domain has no chunks
        for rows in pair_chunks(len(sums), len(xs)):
            g2 = spec.add_pairwise(sums[rows], xs)
            u2 = tspec.add_pairwise(images[rows], us)
            keys.append(np.unique(g2.ravel() * t_card + u2.ravel()))
        key = np.unique(np.concatenate(keys))
        sums, images = key // t_card, key % t_card
        if stop_on_violation:
            clash = np.flatnonzero(sums[1:] == sums[:-1])  # sorted by sum, then image
            if len(clash):
                s0 = int(sums[clash[0]])
                fiber = tuple(int(u) for u in images[sums == s0])
                return sums, images, FiberWitness(depth, s0, fiber)
    return sums, images, None


def _image_dp(
    phi: FreimanMap, pos: int, neg: int
) -> tuple[np.ndarray, FiberWitness | None]:
    """The induced map on the (pos, neg)-fold signed sums, as an image array.

    img[g] is the image sum of every combination with sum g, and -1 where g
    is no such sum.  Each layer scatters img[g + x] = img[g] + phi(x) and
    then reads it back; a pair that reads back another value shows a sum
    with two image sums.  The DP stops at the first such layer and returns
    the array built so far with the smallest violating sum and its distinct
    image sums, sorted.
    """
    spec, tspec = phi.domain.spec, phi.target
    layers = _signed_layers(phi, pos, neg)
    img = np.full(spec.cardinality, -1, dtype=np.int64)
    img[layers[0][0]] = layers[0][1]
    for depth, (xs, us) in enumerate(layers[1:], start=2):
        sums = np.flatnonzero(img >= 0)
        images = img[sums]
        nxt = np.full(spec.cardinality, -1, dtype=np.int64)
        bad = np.zeros(spec.cardinality, dtype=bool)
        for rows in pair_chunks(len(sums), len(xs)):
            g2 = spec.add_pairwise(sums[rows], xs)
            u2 = tspec.add_pairwise(images[rows], us)
            prior = nxt[g2]  # what earlier chunks wrote
            nxt[g2] = u2
            bad[g2[((prior >= 0) & (prior != u2)) | (nxt[g2] != u2)]] = True
        if bad.any():
            s0 = int(np.argmax(bad))
            back = img[spec.add_scalar(spec.negate_indices(xs), s0)]  # img[s0 - x]
            hit = back >= 0
            fiber = np.unique(tspec.add_aligned(back[hit], us[hit]))
            return nxt, FiberWitness(depth, s0, tuple(int(u) for u in fiber))
        img = nxt
    return img, None


def _induced_map(
    phi: FreimanMap, pos: int, neg: int
) -> tuple[np.ndarray, np.ndarray, FiberWitness | None]:
    """(sums, image sums, witness) of the induced map on the (pos, neg)-fold sums.

    Both DPs stop at the first layer with a violation and give the same
    witness.  The image array costs O(|G|) a layer, the keyed pairs at least
    |A|^2 a layer, so the array is used when |G| is small against
    |A|^2 times the number of layers after the first.
    """
    if mask_pays(phi.domain.spec, (pos + neg - 1) * phi.domain.size**2):
        img, witness = _image_dp(phi, pos, neg)
        sums = np.flatnonzero(img >= 0)
        return sums, img[sums], witness
    return _fiber_pairs(phi, pos, neg, stop_on_violation=True)


def s_fold_fibers(a: GroupSet, s: int, phi: FreimanMap) -> dict[int, frozenset[int]]:
    """Map each element of sA to the set of achieved image sums."""
    if s < 1:
        raise DomainError("fold count must be at least 1")
    return sum_difference_fibers(a, s, 0, phi)


def sum_difference_fibers(
    a: GroupSet, k: int, l: int, phi: FreimanMap
) -> dict[int, frozenset[int]]:
    """Fibers of the induced map on kA - lA."""
    sums, images, _ = _fiber_pairs(phi.restrict(a), k, l)
    fibers: dict[int, set[int]] = {}
    for g, u in zip(sums, images):
        fibers.setdefault(int(g), set()).add(int(u))
    return {g: frozenset(us) for g, us in fibers.items()}


def is_freiman_hom(phi: FreimanMap, s: int) -> HomReport:
    """Whether phi respects every equality of s-fold sums."""
    if s < 2:
        raise DomainError("the homomorphism condition needs s >= 2")
    _, _, witness = _induced_map(phi, s, 0)
    return HomReport(witness is None, witness)


def is_freiman_iso(phi: FreimanMap, s: int) -> HomReport:
    """Homomorphism in both directions plus injectivity."""
    forward = is_freiman_hom(phi, s)
    if not forward.ok:
        return forward
    if not phi.is_injective():
        return HomReport(False, None)
    return is_freiman_hom(phi.inverse(), s)


def induced_difference_iso(phi: FreimanMap) -> FreimanMap:
    """The map on 2A - 2A induced by an 8-isomorphism on A.

    Well-definedness is established by the fiber computation itself; the
    result is re-verified as a 2-isomorphism before being returned.
    """
    a = phi.domain
    sums, images, witness = _induced_map(phi, 2, 2)
    if witness is not None:
        raise DomainError(
            f"map does not induce a function on 2A-2A (fiber of {witness.sum_index})"
        )
    domain = GroupSet.from_sorted(a.spec, sums)  # the DPs' sums are ascending and distinct
    induced = FreimanMap(domain, phi.target, images)
    if domain != iterated_sumset(a, 2, 2):
        raise DomainError("fiber domain does not equal 2A-2A")
    report = is_freiman_iso(induced, 2)
    if not report.ok:
        raise DomainError("induced map is not a 2-isomorphism")
    return induced


def transport_progression(psi: FreimanMap, cp: CosetProgression) -> CosetProgression:
    """Push a proper coset progression through a 2-isomorphism.

    The image progression keeps the bounds; the generators of P and of H
    are transported relative to the base point, so H's image is the closure
    of psi(base + h) - psi(base) over H's generators h.  The result is
    checked to equal the pointwise image psi(P + H), to be proper and to
    keep the size, so a map that carries P + H onto anything else is a
    DomainError; psi itself is not re-checked as a 2-isomorphism.
    """
    if not cp.proper:
        raise DomainError("only proper progressions are transported")
    source = materialize(cp)
    if not source.is_subset(psi.domain):
        raise DomainError("progression is not inside the map's domain")
    tspec = psi.target
    base_img = psi(cp.base)
    corner = to_one_sided(cp).base
    gens_img = [
        tspec.zero() if lo == hi else psi(corner + g) - psi(corner)
        for g, (lo, hi) in zip(cp.generators, cp.bounds)
    ]
    h_gens = [psi(cp.base + h) - base_img for h in cp.subgroup.generators]
    image = CosetProgression(
        spec=tspec,
        base=base_img,
        generators=tuple(gens_img),
        bounds=cp.bounds,
        subgroup=subgroup_closure(tspec, h_gens),
        proper=False,
    )
    realized = materialize(image)
    expected = GroupSet(tspec, psi.apply_indices(source.indices))
    if realized != expected:
        raise DomainError("transported progression does not equal the image set")
    proper = realized.size == image.formal_size
    if not proper or realized.size != source.size:
        raise DomainError("transport did not preserve properness and size")
    return replace(image, proper=True)
