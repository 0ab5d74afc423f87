"""Exact arithmetic for finite abelian groups given as products of cyclic groups.

A group is presented as Z/n1 x ... x Z/nk.  Elements and characters are
coordinate vectors; an element is also identified with its mixed-radix
index, so that lexicographic order on coordinates equals numeric order on
indices.  All values are immutable after construction and every operation
is a pure function, so everything here can be shared freely between
threads.

Index arithmetic (sums and negation of index arrays) never decodes an
index into its k coordinates.  The factors are cut once into blocks: runs
of consecutive factors merged while their product stays at most 2^10.  An
index is one divmod per block away from its block indices.  A block of
several factors adds by one gather from its exact sum table and negates by
one from its negation row; the tables are cached by the block's orders, so
every GroupSpec of the same shape shares them.  A block of one factor adds
x - (n - y), which stays inside [-n, n), with one mod, so no order below
2^63 wraps int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .errors import DomainError, InvariantError, ResourceLimitError, StructureError

ENUMERATION_CAP = 1 << 20
_TABLE_BLOCK = 1 << 10  # largest product of factors added by a sum table
_TABLES = 32  # sum tables kept across every GroupSpec, by block orders


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=_TABLES)
def _sum_table(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The (c, c) sum table and the negation row of Z/n1 x ... x Z/nr in
    mixed-radix indices, c = n1 ... nr <= _TABLE_BLOCK, kept in the smallest
    dtype that holds c - 1.  One factor at a time: the table of the factors
    so far times n, plus the new factor's (i + j) mod n on the finer index,
    built in uint16, which holds i + j < 2c."""
    table, neg = np.zeros((1, 1), dtype=np.uint16), np.zeros(1, dtype=np.uint16)
    for n in orders:
        r = np.arange(n, dtype=np.uint16)
        c = len(neg) * n
        table = (table[:, None, :, None] * n + ((r[:, None] + r) % n)[:, None]).reshape(c, c)
        neg = (neg[:, None] * n + (n - r) % n).reshape(c)
    dtype = np.min_scalar_type(len(neg) - 1)
    return _frozen(table.astype(dtype, copy=False)), _frozen(neg.astype(dtype, copy=False))


def _block_sum(size: int, table: np.ndarray | None, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One block's part of the sums x + y: one gather from its sum table, or
    for one factor of order n, x - (n - y), inside [-n, n) so that no order
    below 2^63 wraps int64, reduced in place with one mod."""
    if table is not None:
        return table.take(x * size + y)
    s = x - (size - y)
    s %= size
    return s


@dataclass(frozen=True)
class GroupSpec:
    """The group Z/n1 x ... x Z/nk, each order >= 1, of fewer than 2^63 elements."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(int(n) for n in self.orders) or (1,)
        if any(n < 1 for n in orders):
            raise DomainError(f"cyclic orders must be positive, got {orders!r}")
        object.__setattr__(self, "orders", orders)
        if self.cardinality >= 1 << 63:  # no element index fits an int64
            self.require_enumerable()

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

    @cached_property
    def _blocks(self) -> tuple[tuple[int, np.ndarray | None, np.ndarray | None], ...]:
        """Runs of consecutive factors, each merged while its product stays
        at most _TABLE_BLOCK, as (size, sum table, negation row); a run of
        one factor has neither and adds with one mod."""
        runs: list[list[int]] = []
        for n in self.orders:
            if runs and math.prod(runs[-1]) * n <= _TABLE_BLOCK:
                runs[-1].append(n)
            else:
                runs.append([n])
        return tuple(
            (math.prod(run), *(_sum_table(tuple(run)) if len(run) > 1 else (None, None)))
            for run in runs
        )

    def _digits(self, indices: np.ndarray) -> list[np.ndarray]:
        """Each block's own index of the indices, first block first: one
        divmod per block after the first."""
        x = np.asarray(indices, dtype=np.int64)
        digits = []
        for size, _, _ in self._blocks[:0:-1]:
            x, r = np.divmod(x, size)
            digits.append(r)
        digits.append(x)
        return digits[::-1]

    def _join(self, parts: list[np.ndarray]) -> np.ndarray:
        """Indices in int64 from each block's part, first block first."""
        out = parts[0].astype(np.int64, copy=False)
        for (size, _, _), part in zip(self._blocks[1:], parts[1:]):
            out *= size
            out += part
        return out

    def add_aligned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sums of two index arrays broadcast against each other, so
        componentwise for two of one length: the one addition path."""
        return self._join([
            _block_sum(size, table, x, y)
            for (size, table, _), x, y in zip(self._blocks, self._digits(a), self._digits(b))
        ])

    def add_pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All sums of one index from `a` with one from `b`, as an (m, n) grid.

        Each block of G adds its own part of the grid: a block of several
        factors (at most 2^10 elements) by one gather from its sum table, a
        block of one factor by one mod.  The parts are joined in int64, so a
        group of at most 2^10 elements costs one gather or one mod and no
        divmod, and F_2^20 two gathers and one divmod of each side.
        """
        return self.add_aligned(np.asarray(a, dtype=np.int64)[:, None], b)

    def add_scalar(self, a: np.ndarray, index: int) -> np.ndarray:
        """The sums of each index in `a` with one index of G (as in add_pairwise)."""
        if not 0 <= index < self.cardinality:
            raise DomainError(f"index {index} out of range for {self}")
        return self.add_aligned(a, np.int64(index))

    def negate_indices(self, a: np.ndarray) -> np.ndarray:
        """The index of -x for each index x: per block, one gather from its
        negation row, or one mod."""
        return self._join([
            (-x) % size if neg is None else neg.take(x)
            for (size, _, neg), x in zip(self._blocks, self._digits(a))
        ])

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


@dataclass(frozen=True)
class _Coordinates:
    """A coordinate vector of a GroupSpec, each entry reduced into [0, n_i).

    Elements and characters share this shape.  Each kind adds, subtracts
    and negates coordinatewise, and only with its own kind in its own group.
    """

    spec: GroupSpec
    coords: tuple[int, ...]
    kind: ClassVar[str]  # "element" or "character", named in errors

    def __post_init__(self) -> None:
        orders = self.spec.orders
        if len(self.coords) != len(orders):
            raise StructureError(
                f"{self.kind} has {len(self.coords)} coordinates, group has rank "
                f"{len(orders)}"
            )
        for c, n in zip(self.coords, orders):
            if not 0 <= c < n:
                raise StructureError(f"coordinates {self.coords} out of range")

    @property
    def index(self) -> int:
        return self.spec.index_of(self.coords)

    def order(self) -> int:
        q = 1
        for c, n in zip(self.coords, self.spec.orders):
            q = math.lcm(q, n // math.gcd(c, n))
        return q

    def _reduced(self, coords: Sequence[int]):
        return type(self)(self.spec, self.spec.reduce(coords))

    def __add__(self, other):
        if not isinstance(other, _Coordinates):
            return NotImplemented
        if type(other) is not type(self) or other.spec != self.spec:
            raise StructureError(
                f"{self.kind} of {self.spec} and {other.kind} of {other.spec} "
                "cannot be combined"
            )
        return self._reduced([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._reduced([-c for c in self.coords])

    def __sub__(self, other):
        return self + (-other)


class GroupElement(_Coordinates):
    """An element of a GroupSpec, coordinates reduced into [0, n_i)."""

    kind = "element"

    def __rmul__(self, scalar: int) -> "GroupElement":
        return self.spec.element([scalar * c for c in self.coords])

    def __repr__(self) -> str:
        return f"({', '.join(map(str, self.coords))})"


class Character(_Coordinates):
    """A character of a GroupSpec: x -> exp(2*pi*i * sum(c_i x_i / n_i)).

    The dual group is written additively, so ``-gamma`` is the inverse
    character and ``gamma + delta`` the pointwise product.
    """

    kind = "character"

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

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


def smith_normal_form(
    a: Sequence[Sequence[int]], *, left: bool = False, carry: Sequence[Sequence[int]] | None = None
) -> tuple[tuple[int, ...], list[list[int]] | None, list[list[int]] | None]:
    """The Smith normal form D = u.a.v of an integer matrix ``a`` (rows of
    Python ints) in exact ints: D's nonzero diagonal d_1 | d_2 | ..., then u
    if ``left`` (its rows past the rank span the x with x.a = 0), then
    v^-1 . carry if ``carry`` (one row per column of a) is given; when a's
    rows span the relations among carry's rows in a group, the i-th carried
    row has order d_i.  Each step moves a least entry of the block left to
    its corner and clears its row and column until it divides the block."""
    a = [list(row) for row in a]
    m, n = len(a), len(a[0]) if a else len(carry or ())
    # an empty row stands for each row of a transform nobody reads
    u = [[0] * i + [1] + [0] * (m - 1 - i) if left else [] for i in range(m)]
    w = [[] for _ in range(n)] if carry is None else [list(row) for row in carry]
    diagonal: list[int] = []
    for t in range(min(m, n)):
        while True:
            best, pi, pj = abs(a[t][t]), t, t
            for i in range(t, m) if best != 1 else ():  # nothing beats a unit corner
                row = a[i]
                for j in range(t, n):
                    if row[j] and (not best or abs(row[j]) < best):
                        best, pi, pj = abs(row[j]), i, j
            if not best:
                return tuple(diagonal), u if left else None, None if carry is None else w
            if pi != t:
                a[t], a[pi], u[t], u[pi] = a[pi], a[t], u[pi], u[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
                w[t], w[pj] = w[pj], w[t]
            top, p, clean = a[t], a[t][t], True
            for i in range(t + 1, m):
                if f := a[i][t] // p:
                    a[i] = [x - f * y for x, y in zip(a[i], top)]
                    u[i] = [x - f * y for x, y in zip(u[i], u[t])]
                    clean = clean and not a[i][t]
            for j in range(t + 1, n):
                if f := top[j] // p:
                    for row in a:
                        row[j] -= f * row[t]
                    w[t] = [x + f * y for x, y in zip(w[t], w[j])]
                    clean = clean and not top[j]
            if not clean:
                continue  # a remainder below |p| is the next pivot
            # p must divide the rest of the block: else add in a row it does not divide
            rest = best > 1 and next((i for i in range(t + 1, m) for x in a[i][t + 1:] if x % p), 0)
            if not rest:
                break
            a[t] = [x + y for x, y in zip(a[t], a[rest])]
            u[t] = [x + y for x, y in zip(u[t], u[rest])]
        u[t] = [-x for x in u[t]] if p < 0 else u[t]
        diagonal.append(abs(p))
    return tuple(diagonal), u if left else None, None if carry is None else w


def _congruence_lattice(rows: list[list[int]], e: int) -> list[list[int]]:
    """A basis of the x in Z^len(rows) with x.rows = 0 mod e: with
    u.rows.v = D, x = z.u meets it when e divides each z_i d_i."""
    diagonal, u, _ = smith_normal_form(rows, left=True)
    scaled = [[s * x for x in row] for s, row in zip([e // math.gcd(d, e) for d in diagonal], u)]
    return scaled + u[len(diagonal):]


def _invariant_basis(spec: GroupSpec, rows: Iterable[Sequence[int]]) -> tuple[list, list[tuple]]:
    """The invariant factors, largest first, of the subgroup the coordinate
    ``rows`` generate, and a basis of reduced rows of those orders: the Smith
    form of the relations c.rows = 0 in G (column i scaled by E / n_i, E
    the exponent, is 0 mod E), carrying the nonzero rows."""
    rows = [row for row in map(spec.reduce, rows) if any(row)]
    if not rows:
        return [], []
    scaled = [[x * (spec.exponent // n) for x, n in zip(row, spec.orders)] for row in rows]
    diagonal, _, carried = smith_normal_form(_congruence_lattice(scaled, spec.exponent), carry=rows)
    pairs = [(d, row) for d, row in zip(diagonal, carried) if d > 1][::-1]
    return [d for d, _ in pairs], [spec.reduce(row) for _, row in pairs]


def _span(spec: GroupSpec, orders: Sequence[int], basis: Sequence[Sequence[int]]) -> np.ndarray:
    """The indices of a_1 b_1 + ... + a_r b_r, a in Z/o_1 x ... x Z/o_r in index order."""
    coords = np.zeros((1, spec.rank), dtype=np.int64)
    for o, row in zip(orders, basis):
        steps = np.arange(o, dtype=np.int64)[:, None] * np.array(row, dtype=np.int64)
        coords = (coords[:, None, :] + steps[None, :, :]).reshape(-1, spec.rank)
    return spec.encode(coords)


def subgroup_closure(spec: GroupSpec, generators: Iterable[GroupElement]) -> Subgroup:
    """Smallest subgroup containing the generators: their Smith basis's span."""
    gens = tuple(generators)
    for g in gens:
        if g.spec != spec:
            raise StructureError("generator is not in the ambient group")
    spec.require_enumerable()
    orders, basis = _invariant_basis(spec, [g.coords for g in gens])
    return Subgroup(spec, gens, np.sort(_span(spec, orders, basis)))


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


def kernel_generators(spec: GroupSpec, characters: Sequence[Character]) -> tuple[GroupElement, ...]:
    """An invariant-factor basis of the kernel of the characters, largest
    order first, from the Smith basis of the kernel lattice: the x with
    sum_i x_i c_i E / n_i = 0 mod E for each character's coordinates c."""
    steps = [spec.exponent // n for n in spec.orders]
    rows = [[gamma.coords[i] * steps[i] for gamma in characters] for i in range(spec.rank)]
    basis = _invariant_basis(spec, _congruence_lattice(rows, spec.exponent))[1]
    return tuple(GroupElement(spec, row) for row in basis)


def kernel_of_characters(spec: GroupSpec, characters: Iterable[Character]) -> Subgroup:
    """All x with gamma(x) = 1 for every gamma in the list, generated by
    ``kernel_generators``; the points come from ``filter_by_characters``
    with t == 0 (about |G|/q points left after a character of order q)."""
    chars = tuple(characters)
    for gamma in chars:
        if gamma.spec != spec:
            raise StructureError("character does not belong to the given group")
    indices = filter_by_characters(spec, chars, lambda t, q: t == 0)
    return Subgroup(spec, kernel_generators(spec, chars) if len(indices) > 1 else (), indices)


@dataclass(frozen=True, eq=False)
class CyclicDecomposition:
    """An internal direct-sum presentation H = <g1> + ... + <gr>.

    ``spec`` is the product Z/m1 x ... x Z/mr (or Z/1 for the trivial
    subgroup); ``from_model[i]`` is the ambient index of the subgroup point
    with product index i, and ``to_model`` is its inverse.
    """

    subgroup: Subgroup
    orders: tuple[int, ...]
    generators: tuple[GroupElement, ...]
    spec: GroupSpec
    from_model: np.ndarray

    @cached_property
    def _model_of_sorted(self) -> np.ndarray:
        """The product index of each subgroup point, in ambient index order."""
        return np.argsort(self.from_model)

    def to_model(self, indices: np.ndarray) -> np.ndarray:
        """The product index of each subgroup point given by ambient index."""
        return self._model_of_sorted[np.searchsorted(self.subgroup.indices, indices)]


def subgroup_decomposition(subgroup: Subgroup) -> CyclicDecomposition:
    """Present a subgroup as an explicit direct sum of cyclic groups: the
    invariant factors, largest first, and a basis, read from the Smith form
    of the relations among ``subgroup.generators``, whose span must be the
    subgroup's points (else an InvariantError)."""
    spec = subgroup.spec
    spec.require_enumerable()
    orders, basis = _invariant_basis(spec, [g.coords for g in subgroup.generators])
    points = _span(spec, orders, basis)
    if not np.array_equal(np.sort(points), subgroup.indices):
        raise InvariantError("cyclic decomposition is not a direct sum covering the subgroup")
    return CyclicDecomposition(
        subgroup=subgroup,
        orders=tuple(orders),
        generators=tuple(GroupElement(spec, row) for row in basis),
        spec=GroupSpec(tuple(orders) or (1,)),
        from_model=_frozen(points),
    )
