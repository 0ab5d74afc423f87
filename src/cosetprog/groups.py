"""Exact arithmetic for finite abelian groups given as products of cyclic groups.

A group is presented as Z/n1 x ... x Z/nk.  Elements and characters are
coordinate vectors; an element is also identified with its mixed-radix
index, so that lexicographic order on coordinates equals numeric order on
indices.  All values are immutable after construction and every operation
is a pure function, so everything here can be shared freely between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as _cartesian
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, InvariantError, ResourceLimitError, StructureError

ENUMERATION_CAP = 1 << 20


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GroupSpec:
    """The group Z/n1 x ... x Z/nk, each order >= 1."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(int(n) for n in self.orders) or (1,)
        if any(n < 1 for n in orders):
            raise DomainError(f"cyclic orders must be positive, got {orders!r}")
        object.__setattr__(self, "orders", orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def cardinality(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.orders)

    @cached_property
    def _orders_arr(self) -> np.ndarray:
        return _frozen(np.array(self.orders, dtype=np.int64))

    @cached_property
    def _weights(self) -> np.ndarray:
        # mixed-radix place values: index = sum(coords[i] * w[i])
        w = np.ones(self.rank, dtype=np.int64)
        for i in range(self.rank - 2, -1, -1):
            w[i] = w[i + 1] * self.orders[i + 1]
        return _frozen(w)

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.rank:
            raise StructureError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return tuple(int(c) % n for c, n in zip(coords, self.orders))

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, self.reduce(coords))

    def character(self, coords: Sequence[int]) -> "Character":
        return Character(self, self.reduce(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def trivial_character(self) -> "Character":
        return Character(self, (0,) * self.rank)

    def index_of(self, coords: Sequence[int]) -> int:
        idx = 0
        for c, n, w in zip(coords, self.orders, self._weights):
            idx += (int(c) % n) * int(w)
        return idx

    def coords_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.cardinality:
            raise DomainError(f"index {index} out of range for {self}")
        coords = []
        for n, w in zip(self.orders, self._weights):
            coords.append((index // int(w)) % n)
        return tuple(coords)

    def element_at(self, index: int) -> "GroupElement":
        return GroupElement(self, self.coords_of(index))

    def character_at(self, index: int) -> "Character":
        return Character(self, self.coords_of(index))

    def elements_of_rows(self, coords: np.ndarray) -> tuple["GroupElement", ...]:
        """One element per coordinate row of an (m, rank) array, reduced here."""
        return _of_rows(GroupElement, self, coords)

    def characters_of_rows(self, coords: np.ndarray) -> tuple["Character", ...]:
        """One character per coordinate row of an (m, rank) array, reduced here."""
        return _of_rows(Character, self, coords)

    # --- vectorized index arithmetic -------------------------------------

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Indices (m,) -> coordinate rows (m, k)."""
        idx = np.asarray(indices, dtype=np.int64)
        return (idx[:, None] // self._weights[None, :]) % self._orders_arr[None, :]

    def reduce_rows(self, coords: np.ndarray) -> np.ndarray:
        """Coordinate rows (m, k) reduced into [0, n_i)."""
        return np.asarray(coords, dtype=np.int64) % self._orders_arr[None, :]

    def encode(self, coords: np.ndarray) -> np.ndarray:
        """Coordinate rows (m, k) -> indices (m,)."""
        return self.reduce_rows(coords) @ self._weights

    def add_pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All sums of one index from `a` with one from `b`, as an (m, n) grid.

        Each coordinate's sums are one grid, reduced and weighted in place,
        so at most two grids are alive at once.
        """
        ca = self.decode(np.asarray(a, dtype=np.int64))
        cb = self.decode(np.asarray(b, dtype=np.int64))
        out = None
        for i, (n, w) in enumerate(zip(self.orders, self._weights.tolist())):
            grid = ca[:, i : i + 1] + cb[None, :, i]
            grid %= n
            if w != 1:
                grid *= w
            if out is None:
                out = grid
            else:
                out += grid
        return out

    def add_aligned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Componentwise sums of two equal-length index arrays."""
        ca = self.decode(a)
        cb = self.decode(b)
        return self.encode(ca + cb)

    def add_scalar(self, a: np.ndarray, index: int) -> np.ndarray:
        ca = self.decode(np.asarray(a, dtype=np.int64))
        cx = np.array(self.coords_of(int(index)), dtype=np.int64)
        return self.encode(ca + cx[None, :])

    def negate_indices(self, a: np.ndarray) -> np.ndarray:
        ca = self.decode(np.asarray(a, dtype=np.int64))
        return self.encode(-ca)

    def scale_indices(self, a: np.ndarray, factor: int) -> np.ndarray:
        ca = self.decode(np.asarray(a, dtype=np.int64))
        return self.encode(ca * int(factor))

    def require_enumerable(self) -> None:
        if self.cardinality > ENUMERATION_CAP:
            raise ResourceLimitError(
                f"group of size {self.cardinality} exceeds enumeration cap {ENUMERATION_CAP}"
            )

    def __str__(self) -> str:
        return " x ".join(f"Z/{n}" for n in self.orders)


def _of_rows(kind: type, spec: GroupSpec, coords: np.ndarray) -> tuple:
    """``kind`` objects (elements or characters) of coordinate rows.  The rows
    are reduced into [0, n_i) here, which is all ``__post_init__`` checks, so
    each object is built without it."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != spec.rank:
        raise StructureError(f"expected rows of {spec.rank} coordinates, got shape {coords.shape}")
    out = []
    for row in map(tuple, spec.reduce_rows(coords).tolist()):
        obj = object.__new__(kind)
        attrs = obj.__dict__  # frozen: set the fields without __setattr__
        attrs["spec"] = spec
        attrs["coords"] = row
        out.append(obj)
    return tuple(out)


def _tuple_order(coords: Sequence[int], orders: Sequence[int]) -> int:
    """Order of a coordinate vector in the product of cyclic groups."""
    q = 1
    for c, n in zip(coords, orders):
        q = math.lcm(q, n // math.gcd(int(c), n))
    return q


@dataclass(frozen=True)
class GroupElement:
    """An element of a GroupSpec, coordinates reduced into [0, n_i)."""

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = self.spec.orders
        if len(self.coords) != len(orders):
            raise StructureError(
                f"element has {len(self.coords)} coordinates, group has rank "
                f"{len(orders)}"
            )
        for c, n in zip(self.coords, orders):
            if not 0 <= c < n:
                raise StructureError(f"coordinates {self.coords} out of range")

    @property
    def index(self) -> int:
        return self.spec.index_of(self.coords)

    def order(self) -> int:
        return _tuple_order(self.coords, self.spec.orders)

    def _require_same_spec(self, other: "GroupElement") -> None:
        if self.spec != other.spec:
            raise StructureError(
                f"elements of {self.spec} and {other.spec} cannot be combined"
            )

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._require_same_spec(other)
        return self.spec.element(
            [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self) -> "GroupElement":
        return self.spec.element([-c for c in self.coords])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "GroupElement":
        return self.spec.element([scalar * c for c in self.coords])

    def __repr__(self) -> str:
        return f"({', '.join(map(str, self.coords))})"


@dataclass(frozen=True)
class Character:
    """A character of a GroupSpec: x -> exp(2*pi*i * sum(c_i x_i / n_i)).

    The dual group is written additively, so ``-gamma`` is the inverse
    character and ``gamma + delta`` the pointwise product.
    """

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = self.spec.orders
        if len(self.coords) != len(orders):
            raise StructureError(
                f"character has {len(self.coords)} coordinates, group has rank "
                f"{len(orders)}"
            )
        for c, n in zip(self.coords, orders):
            if not 0 <= c < n:
                raise StructureError(f"coordinates {self.coords} out of range")

    @property
    def index(self) -> int:
        return self.spec.index_of(self.coords)

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        return _tuple_order(self.coords, self.spec.orders)

    def arg_fraction(self, x: GroupElement) -> Fraction:
        """(sum c_i x_i / n_i) mod 1 as an exact rational in [0, 1)."""
        if self.spec != x.spec:
            raise StructureError("character and element live in different groups")
        q = self.order()
        t = 0
        for c, xi, n in zip(self.coords, x.coords, self.spec.orders):
            t += xi * (q * c // n)
        return Fraction(t % q, q)

    def circular_distance(self, x: GroupElement) -> Fraction:
        r = self.arg_fraction(x)
        return min(r, 1 - r)

    def value(self, x: GroupElement) -> complex:
        r = self.arg_fraction(x)
        return complex(np.exp(2j * np.pi * float(r)))

    def phase_vector(self) -> np.ndarray:
        """Integer row m with arg = (m . x mod q) / q, q the character order."""
        q = self.order()
        return np.array(
            [q * c // n for c, n in zip(self.coords, self.spec.orders)],
            dtype=np.int64,
        )

    def arg_numerators(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized arg numerators over coordinate rows, denominator order()."""
        q = self.order()
        return (np.asarray(coords, dtype=np.int64) @ self.phase_vector()) % q

    def _require_same_spec(self, other: "Character") -> None:
        if self.spec != other.spec:
            raise StructureError("characters of different groups cannot be combined")

    def __add__(self, other: "Character") -> "Character":
        self._require_same_spec(other)
        return self.spec.character(
            [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self) -> "Character":
        return self.spec.character([-c for c in self.coords])

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def __repr__(self) -> str:
        return f"chi({', '.join(map(str, self.coords))})"


def enumerate_group(spec: GroupSpec) -> list[GroupElement]:
    """All elements in lexicographic coordinate order."""
    spec.require_enumerable()
    return [
        GroupElement(spec, coords)
        for coords in _cartesian(*(range(n) for n in spec.orders))
    ]


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup given by generators, with its element list materialized."""

    spec: GroupSpec
    generators: tuple[GroupElement, ...]
    indices: np.ndarray  # sorted element indices

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "indices", _frozen(np.asarray(self.indices, dtype=np.int64))
        )

    @property
    def order(self) -> int:
        return len(self.indices)

    def contains_index(self, index: int) -> bool:
        pos = int(np.searchsorted(self.indices, index))
        return pos < len(self.indices) and int(self.indices[pos]) == index

    def __contains__(self, x: GroupElement) -> bool:
        if x.spec != self.spec:
            raise StructureError("element is not in the ambient group")
        return self.contains_index(x.index)

    def elements(self) -> list[GroupElement]:
        return [self.spec.element_at(int(i)) for i in self.indices]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(
            self.indices, other.indices
        )

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.spec})"


def _extend_closure(spec: GroupSpec, mask: np.ndarray, g: int) -> int:
    """Grow the subgroup C marked in ``mask`` (over all of G) to
    C + <g> = C + {0, g, ..., (r-1)g}, r the least k >= 1 with kg in C;
    returns the new order."""
    coords = spec.coords_of(g)
    steps = np.arange(_tuple_order(coords, spec.orders) + 1, dtype=np.int64)
    multiples = spec.encode(steps[:, None] * np.array(coords, dtype=np.int64))
    r = 1 + int(mask[multiples[1:]].argmax())  # the last multiple is 0
    mask[spec.add_pairwise(np.flatnonzero(mask), multiples[:r]).ravel()] = True
    return int(np.count_nonzero(mask))


def _closure_indices(spec: GroupSpec, gen_indices: Sequence[int]) -> np.ndarray:
    mask = np.zeros(spec.cardinality, dtype=bool)
    mask[0] = True
    for g in gen_indices:
        if not mask[g]:  # a generator already in the closure adds nothing
            _extend_closure(spec, mask, int(g))
    return np.flatnonzero(mask)


def subgroup_closure(spec: GroupSpec, generators: Iterable[GroupElement]) -> Subgroup:
    """Smallest subgroup containing the generators."""
    gens = tuple(generators)
    for g in gens:
        if g.spec != spec:
            raise StructureError("generator is not in the ambient group")
    spec.require_enumerable()
    # closure under addition suffices: -g = (order(g)-1)*g in a finite group
    indices = _closure_indices(spec, [g.index for g in gens])
    return Subgroup(spec, gens, indices)


def reduce_generators(subgroup: Subgroup) -> tuple[GroupElement, ...]:
    """A small deterministic generating set: repeatedly the least element
    of the subgroup outside the closure of the generators so far."""
    spec = subgroup.spec
    gens: list[GroupElement] = []
    have = np.zeros(spec.cardinality, dtype=bool)
    have[0] = True
    order = 1
    while order < subgroup.order:
        rest = subgroup.indices[~have[subgroup.indices]]
        gens.append(spec.element_at(int(rest[0])))
        order = _extend_closure(spec, have, int(rest[0]))
    return tuple(gens)


def arg_numerators_over_group(gamma: Character) -> np.ndarray:
    """gamma's arg numerators at every index of G, in index order, over
    the order of gamma: the outer sum of each axis's multiples of its
    phase, so no coordinate table of G is built."""
    q = gamma.order()
    t = np.zeros(1, dtype=np.int64)
    for m, n in zip(gamma.phase_vector().tolist(), gamma.spec.orders):
        t = np.add.outer(t, np.arange(n, dtype=np.int64) * m).reshape(-1)
        t %= q
    return t


def filter_by_characters(
    spec: GroupSpec,
    characters: Sequence[Character],
    admits: Callable[[np.ndarray, int], np.ndarray],
) -> np.ndarray:
    """The ascending indices x of G with ``admits(t, q)`` true for every
    character, t the arg numerator of x over the order q.

    One character at a time: the first is evaluated on all of G, each later
    one only on the indices every earlier one kept, so the cost is one pass
    over G plus the survivors, and the survivors stay sorted and distinct.
    """
    spec.require_enumerable()
    if not characters:
        return np.arange(spec.cardinality, dtype=np.int64)
    first, *rest = characters
    indices = np.flatnonzero(admits(arg_numerators_over_group(first), first.order()))
    for gamma in rest:
        t = gamma.arg_numerators(spec.decode(indices))
        indices = indices[admits(t, gamma.order())]
    return indices.astype(np.int64, copy=False)


def kernel_of_characters(spec: GroupSpec, characters: Iterable[Character]) -> Subgroup:
    """All x with gamma(x) = 1 for every gamma in the list.

    ``filter_by_characters`` with t == 0: one pass over G, then each later
    character only on the kernel of those before it (about |G|/q points
    after a character of order q).
    """
    chars = tuple(characters)
    for gamma in chars:
        if gamma.spec != spec:
            raise StructureError("character does not belong to the given group")
    indices = filter_by_characters(spec, chars, lambda t, q: t == 0)
    kernel = Subgroup(spec, (), indices)
    return Subgroup(spec, reduce_generators(kernel), indices)


@dataclass(frozen=True, eq=False)
class CyclicDecomposition:
    """An internal direct-sum presentation H = <g1> + ... + <gr>.

    ``spec`` is the product Z/m1 x ... x Z/mr (or Z/1 for the trivial
    subgroup); ``to_model``/``from_model`` are index bijections between the
    subgroup inside its ambient group and the product presentation.
    """

    subgroup: Subgroup
    orders: tuple[int, ...]
    generators: tuple[GroupElement, ...]
    spec: GroupSpec
    to_model: dict[int, int]
    from_model: dict[int, int]


def _max_order_element(spec: GroupSpec, indices: np.ndarray) -> GroupElement:
    """The first element of largest order among ``indices``."""
    orders = spec._orders_arr
    element_orders = np.lcm.reduce(orders // np.gcd(spec.decode(indices), orders), axis=1)
    return spec.element_at(int(indices[int(np.argmax(element_orders))]))


def _first_primitive_character(g: GroupElement) -> Character:
    """The lowest-index character whose value at g has g's full order q.

    chi(g) is the value at chi of the character with g's coordinates, whose
    order is also q, so it has order q / gcd(t, q) for t its arg numerator.
    """
    q = g.order()
    t = arg_numerators_over_group(g.spec.character(g.coords))
    primitive = np.flatnonzero(np.gcd(t, q) == 1)
    if not len(primitive):
        raise InvariantError("no character is primitive on a maximal element")
    return g.spec.character_at(int(primitive[0]))


def subgroup_decomposition(subgroup: Subgroup) -> CyclicDecomposition:
    """Present a subgroup as an explicit direct sum of cyclic groups.

    Splits off a maximal-order element g at each step, using the first
    ambient character that is primitive on g to cut out a complement.
    Exhaustive over the ambient dual group, so only suitable below the
    enumeration cap.
    """
    spec = subgroup.spec
    spec.require_enumerable()
    orders: list[int] = []
    gens: list[GroupElement] = []
    rem = subgroup.indices
    while len(rem) > 1:
        g = _max_order_element(spec, rem)
        m = g.order()
        split = _first_primitive_character(g)
        orders.append(m)
        gens.append(g)
        nums = split.arg_numerators(spec.decode(rem))
        rem = rem[nums == 0]
    model_spec = GroupSpec(tuple(orders) or (1,))
    combos = model_spec.decode(np.arange(model_spec.cardinality, dtype=np.int64))
    gen_coords = np.array([g.coords for g in gens] or [spec.zero().coords], dtype=np.int64)
    points = spec.encode(combos @ gen_coords).tolist()
    to_model = dict(zip(points, range(len(points))))
    if len(to_model) != len(points):
        raise InvariantError("cyclic decomposition is not a direct sum")
    from_model = dict(enumerate(points))
    if len(to_model) != subgroup.order:
        raise InvariantError("cyclic decomposition does not cover the subgroup")
    return CyclicDecomposition(
        subgroup=subgroup,
        orders=tuple(orders),
        generators=tuple(gens),
        spec=model_spec,
        to_model=to_model,
        from_model=from_model,
    )
