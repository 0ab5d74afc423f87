"""Freiman homomorphism verification and transport of coset progressions.

A map is held as a set is: its domain's sorted index array and, aligned
with it, one array of image indices.  Applying, composing and inverting
maps are array operations, never a walk over the points.

The s-fold condition is checked through fibers of the induced map on sums:
phi is an s-homomorphism iff every multiset of s elements with the same sum
has the same image sum.  One layered loop adds one signed element per
layer, so an s = 8 check costs a few dense passes instead of |A|^8 tuple
enumerations, and a sum reached with two image sums is where the map
fails.  A layer keeps one image per sum in one of two ways.  When the sums
are dense in G it is an image array over G (the image sum of each reached
sum, -1 elsewhere), so no layer is sorted; otherwise it is the distinct
(sum, image sum) pairs, sorted as two columns.  Neither packs a pair into
one integer, so the check is exact in every group whose index sums fit in
int64, at any target order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

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


def _distinct_pairs(sums: np.ndarray, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (sum, image) pairs, sorted by sum and then by image."""
    order = np.lexsort((images, sums))
    sums, images = sums[order], images[order]
    new = np.ones(len(sums), dtype=bool)
    new[1:] = (sums[1:] != sums[:-1]) | (images[1:] != images[:-1])
    return sums[new], images[new]


def _keep_sorted(blocks) -> tuple[np.ndarray, np.ndarray, int | None]:
    """One layer as its distinct (sum, image) pairs, each block sorted as it comes."""
    empty = np.empty(0, dtype=np.int64)  # an empty domain has no blocks
    kept = [_distinct_pairs(g, u) for g, u in blocks] or [(empty, empty)]
    sums, images = _distinct_pairs(*(np.concatenate(col) for col in zip(*kept)))
    clash = sums[1:][sums[1:] == sums[:-1]]
    return sums, images, int(clash[0]) if len(clash) else None


def _keep_in_array(card: int, blocks) -> tuple[np.ndarray, np.ndarray, int | None]:
    """One layer as an image array over G, -1 at the sums it does not reach.

    A block writes img[g] = u and reads it back: a pair that reads back
    another value, or disagrees with an earlier block, marks g as a sum with
    two image sums.
    """
    img = np.full(card, -1, dtype=np.int64)
    bad = np.zeros(card, dtype=bool)
    for g, u in blocks:
        prior = img[g]
        img[g] = u
        bad[g[((prior >= 0) & (prior != u)) | (img[g] != u)]] = True
    sums = np.flatnonzero(img >= 0)
    return sums, img[sums], int(np.argmax(bad)) if bad.any() else None


def _induced_map(
    phi: FreimanMap, pos: int, neg: int
) -> tuple[np.ndarray, np.ndarray, FiberWitness | None]:
    """(sums, image sums, witness) of the induced map on the (pos, neg)-fold signed sums.

    Layer 1 is the domain, pos times as it is and then neg times negated;
    each later layer adds one signed element to every sum of the one before.
    The loop stops at the first layer where one sum has two image sums, and
    returns that layer with the smallest such sum and its distinct image
    sums, sorted, read back from the layer before.  A layer is kept in an
    array over G when the sums are dense in G (see ``mask_pays``: the array
    costs O(|G|) a layer, the sort at least |A|^2 log |A|), and as sorted
    (sum, image) columns otherwise.
    """
    if pos + neg < 1:
        raise DomainError("at least one fold is required")
    spec, tspec = phi.domain.spec, phi.target
    xs, us = phi.domain.indices, phi.images
    layers = [(xs, us)] * pos + [(spec.negate_indices(xs), tspec.negate_indices(us))] * neg
    if mask_pays(spec, (pos + neg - 1) * len(xs) ** 2):
        keep = partial(_keep_in_array, spec.cardinality)
    else:
        keep = _keep_sorted
    order = np.argsort(layers[0][0])
    sums, images = layers[0][0][order], layers[0][1][order]
    for depth, (xs, us) in enumerate(layers[1:], start=2):
        blocks = (
            (spec.add_pairwise(sums[rows], xs).ravel(),
             tspec.add_pairwise(images[rows], us).ravel())
            for rows in pair_chunks(len(sums), len(xs))
        )
        nxt, nxt_images, s0 = keep(blocks)
        if s0 is not None:
            back = spec.add_scalar(spec.negate_indices(xs), s0)  # s0 - x
            at = np.minimum(np.searchsorted(sums, back), len(sums) - 1)
            hit = sums[at] == back
            fiber = np.unique(tspec.add_aligned(images[at[hit]], us[hit]))
            return nxt, nxt_images, FiberWitness(depth, s0, tuple(int(u) for u in fiber))
        sums, images = nxt, nxt_images
    return sums, images, None


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
    domain = GroupSet.from_sorted(a.spec, sums)  # the layer's sums are ascending and distinct
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
