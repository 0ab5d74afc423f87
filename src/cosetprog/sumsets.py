"""Exact sumset arithmetic: A+B, kA-lA, doubling constants.

A sumset is computed by pairwise addition in row chunks.  When the sums are
dense in G (see ``mask_pays``) each chunk is marked in one boolean mask over
G, whose nonzero positions are the result, already sorted and distinct;
otherwise each chunk is deduplicated by sorting.  When |A| + |B| > |G| the
sum is G by pigeonhole, and no sum is formed.  No FFT is involved, so every
cardinality below is exact.

A set keeps the sums kA - lA asked of it (``iterated_sumset``, ``doubling``
and ``difference_set`` with one argument), so each is built once per set
and freed with it; this changes neither the set's value, its equality nor
its hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, StructureError
from .groups import ENUMERATION_CAP, GroupElement, GroupSpec, Subgroup, _frozen

_PAIR_BUDGET = 1 << 22
_MASK_RATIO = 1024


class GroupSet:
    """A deduplicated subset of a group, canonically ordered.

    Elements are stored as a sorted array of mixed-radix indices, which is
    the lexicographic order on coordinate vectors.  Instances are immutable.
    A set keeps the sums kA - lA asked of it in ``_sums``, keyed by (k, l);
    they change neither its value, its equality nor its hash, and are never
    written to text.
    """

    __slots__ = ("spec", "indices", "_sums")

    def __init__(self, spec: GroupSpec, indices: np.ndarray):
        arr = np.array(indices, dtype=np.int64).ravel()
        arr.sort()
        if len(arr) > 1:
            repeated = arr[1:] == arr[:-1]
            if np.count_nonzero(repeated):
                arr = arr[np.concatenate(([True], ~repeated))]
        if len(arr) and (int(arr[0]) < 0 or int(arr[-1]) >= spec.cardinality):
            raise StructureError("element index out of range for the group")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "indices", _frozen(arr))
        object.__setattr__(self, "_sums", {})

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GroupSet is immutable")

    @classmethod
    def from_mask(cls, spec: GroupSpec, mask: np.ndarray) -> "GroupSet":
        """The set {x : mask[x]} for a boolean mask over the whole group.

        The nonzero positions are already sorted and distinct, so the
        constructor's sort is skipped.
        """
        return cls.from_sorted(spec, np.flatnonzero(mask))

    @classmethod
    def from_sorted(cls, spec: GroupSpec, indices: np.ndarray) -> "GroupSet":
        """The set of indices that are already ascending, distinct and in
        range, as a mask's nonzero positions or ``filter_by_characters``'s
        survivors are; the constructor's sort is skipped."""
        indices = np.asarray(indices).astype(np.int64, copy=False)
        out = object.__new__(cls)
        object.__setattr__(out, "spec", spec)
        object.__setattr__(out, "indices", _frozen(indices))
        object.__setattr__(out, "_sums", {})
        return out

    @classmethod
    def from_coords(cls, spec: GroupSpec, coords: Iterable[Sequence[int]]) -> "GroupSet":
        """The set of the given coordinate rows, reduced into G: one ``encode``
        over an (m, rank) array."""
        rows = np.asarray(coords if isinstance(coords, np.ndarray) else list(coords), dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, spec.rank)
        if rows.ndim != 2 or rows.shape[1] != spec.rank:
            raise StructureError(f"expected rows of {spec.rank} coordinates, got shape {rows.shape}")
        return cls(spec, spec.encode(rows))

    @classmethod
    def from_elements(cls, elements: Iterable[GroupElement]) -> "GroupSet":
        elems = list(elements)
        if not elems:
            raise DomainError("cannot infer the group of an empty element list")
        spec = elems[0].spec
        for e in elems:
            if e.spec != spec:
                raise StructureError("elements of different groups in one set")
        return cls(spec, np.array([e.index for e in elems], dtype=np.int64))

    @classmethod
    def empty(cls, spec: GroupSpec) -> "GroupSet":
        return cls(spec, np.empty(0, dtype=np.int64))

    @classmethod
    def full(cls, spec: GroupSpec) -> "GroupSet":
        return cls.from_sorted(spec, np.arange(spec.cardinality, dtype=np.int64))

    @classmethod
    def from_subgroup(cls, sub: Subgroup) -> "GroupSet":
        return cls(sub.spec, sub.indices)

    @property
    def size(self) -> int:
        return len(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __bool__(self) -> bool:
        return len(self.indices) > 0

    def coords(self) -> np.ndarray:
        return self.spec.decode(self.indices)

    def elements(self) -> list[GroupElement]:
        return [self.spec.element_at(int(i)) for i in self.indices]

    def __iter__(self):
        return iter(self.elements())

    def contains_index(self, index: int) -> bool:
        pos = int(np.searchsorted(self.indices, index))
        return pos < len(self.indices) and int(self.indices[pos]) == index

    def __contains__(self, x: GroupElement) -> bool:
        if x.spec != self.spec:
            raise StructureError("element is not in this set's group")
        return self.contains_index(x.index)

    def is_subset(self, other: "GroupSet") -> bool:
        _require_same_spec(self, other)
        if not self or not other:
            return not self
        pos = np.minimum(other.indices.searchsorted(self.indices), other.size - 1)
        return bool((other.indices[pos] == self.indices).all())

    def translate(self, x: GroupElement) -> "GroupSet":
        if x.spec != self.spec:
            raise StructureError("translation element is not in this group")
        return GroupSet(self.spec, self.spec.add_scalar(self.indices, x.index))

    def negate(self) -> "GroupSet":
        return GroupSet(self.spec, self.spec.negate_indices(self.indices))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupSet):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash((self.spec, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"GroupSet(size={self.size} in {self.spec})"


def _require_same_spec(a: GroupSet, b: GroupSet) -> None:
    if a.spec != b.spec:
        raise StructureError(f"sets live in different groups: {a.spec} vs {b.spec}")


def pair_chunks(rows: int, cols: int) -> Iterator[slice]:
    """Row slices of an (rows, cols) pairwise grid, each at most _PAIR_BUDGET sums."""
    step = max(1, _PAIR_BUDGET // max(cols, 1))
    for i in range(0, rows, step):
        yield slice(i, i + step)


def mask_pays(spec: GroupSpec, pairs: int) -> bool:
    """Whether `pairs` sums are dense enough in G to be marked in an array over G.

    The array costs O(|G|) to allocate and scan, sorting the sums
    O(pairs log pairs); the array is used when G is enumerable and
    |G| <= _MASK_RATIO * pairs.
    """
    return spec.cardinality <= min(ENUMERATION_CAP, _MASK_RATIO * pairs)


def sumset(a: GroupSet, b: GroupSet) -> GroupSet:
    """{x + y : x in A, y in B}.

    When |A| + |B| > |G|, every x - B meets A, so the sum is G.
    """
    _require_same_spec(a, b)
    spec = a.spec
    if not a or not b:
        return GroupSet.empty(spec)
    if a.size + b.size > spec.cardinality:
        return GroupSet.full(spec)
    chunks = pair_chunks(a.size, b.size)
    if mask_pays(spec, a.size * b.size):
        mask = np.zeros(spec.cardinality, dtype=bool)
        for rows in chunks:
            mask[spec.add_pairwise(a.indices[rows], b.indices)] = True
        return GroupSet.from_mask(spec, mask)
    sums = [np.unique(spec.add_pairwise(a.indices[rows], b.indices)) for rows in chunks]
    return GroupSet(spec, np.concatenate(sums))


def difference_set(a: GroupSet, b: GroupSet | None = None) -> GroupSet:
    """A - B (defaults to A - A, which A keeps)."""
    if b is None:
        return _kept_sum(a, 1, 1)
    return sumset(a, b.negate())


def iterated_sumset(a: GroupSet, k: int, l: int) -> GroupSet:
    """kA - lA, the k-fold sums minus l-fold sums; k = l = 0 is disallowed."""
    if k < 0 or l < 0:
        raise DomainError("fold counts must be non-negative")
    if k == 0 and l == 0:
        raise DomainError("0A - 0A is undefined")
    return _kept_sum(a, k, l)


def _kept_sum(a: GroupSet, k: int, l: int) -> GroupSet:
    """kA - lA from the sums A keeps, extended one ``sumset`` at a time.

    kA grows from the largest kept jA (j <= k; 1A is A itself), then A is
    subtracted from the largest kept kA - iA (i <= l); every sum built on
    the way is kept.  -A is kept as 0A - 1A, the start when k = 0.
    """
    sums = a._sums
    if (k, l) in sums:
        return sums[(k, l)]
    if l and (0, 1) not in sums:
        sums[(0, 1)] = a.negate()
    j = max((j for j, i in sums if i == 0 and j <= k), default=1)
    result = sums.get((j, 0), a)
    for j in range(j + 1, k + 1):
        result = sums[(j, 0)] = sumset(result, a)
    i = max((i for j, i in sums if j == k and 0 < i <= l), default=0)
    result = sums.get((k, i), result)
    for i in range(i + 1, l + 1):
        result = sums[(k, i)] = sumset(result, sums[(0, 1)])
    return result


@dataclass(frozen=True)
class DoublingReport:
    """Raw sizes plus the exact doubling ratio K = |A+A| / |A|."""

    set_size: int
    sumset_size: int
    k: Fraction


def doubling(a: GroupSet) -> DoublingReport:
    if not a:
        raise DomainError("doubling of the empty set is undefined")
    s = _kept_sum(a, 2, 0)
    return DoublingReport(a.size, s.size, Fraction(s.size, a.size))


@dataclass(frozen=True)
class PlunneckeReport:
    holds: bool
    lhs: int
    rhs: Fraction
    doubling: DoublingReport


def plunnecke_check(a: GroupSet, k: int, l: int) -> PlunneckeReport:
    """Exact check of |kA - lA| <= K^(k+l) |A|."""
    dbl = doubling(a)
    lhs = iterated_sumset(a, k, l).size
    rhs = dbl.k ** (k + l) * a.size
    return PlunneckeReport(lhs <= rhs, lhs, rhs, dbl)
