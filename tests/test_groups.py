import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetprog import (
    DomainError,
    GroupSpec,
    ResourceLimitError,
    StructureError,
    enumerate_group,
    kernel_of_characters,
    subgroup_closure,
    subgroup_decomposition,
)
from cosetprog.groups import arg_numerators_over_group, smith_normal_form

from conftest import SMALL_SPECS, character_tuples, oracle_invariant_factors, oracle_kernel


def test_elem_add_modular():
    g = GroupSpec((8, 3))
    assert (g.element((7, 2)) + g.element((2, 2))).coords == (1, 1)


def test_a_group_of_2_63_elements_is_refused():
    """No element index of such a group fits an int64, so building its spec
    is the enumeration cap's error, whatever builds it."""
    for orders in [(1 << 63,), (1 << 32, 1 << 31)]:
        with pytest.raises(ResourceLimitError, match=f"^group of size {1 << 63} exceeds"):
            GroupSpec(orders)
    assert GroupSpec(((1 << 63) - 25,)).cardinality == (1 << 63) - 25


def test_neg_identity():
    g = GroupSpec((8, 3))
    assert (-g.zero()).coords == (0, 0)


def test_inverse_law():
    g = GroupSpec((8,))
    x = g.element((5,))
    assert (x + (-x)).coords == (0,)


def test_spec_mismatch_raises():
    a = GroupSpec((8,)).element((1,))
    b = GroupSpec((9,)).element((1,))
    with pytest.raises(StructureError):
        a + b


@pytest.mark.parametrize("left, right, message", [
    ((8, "element"), (9, "element"), "element of Z/8 and element of Z/9"),
    ((8, "character"), (9, "character"), "character of Z/8 and character of Z/9"),
    ((8, "character"), (8, "element"), "character of Z/8 and element of Z/8"),
    ((8, "element"), (8, "character"), "element of Z/8 and character of Z/8"),
], ids=["elements", "characters", "chi-plus-elem", "elem-plus-chi"])
def test_mixed_kinds_or_groups_name_both_in_the_error(left, right, message):
    x, y = (getattr(GroupSpec((n,)), kind)((1,)) for n, kind in (left, right))
    for combine in (lambda: x + y, lambda: x - y):
        with pytest.raises(StructureError, match=f"^{message} cannot be combined$"):
            combine()


def test_elements_and_characters_keep_their_reprs_and_kinds():
    g = GroupSpec((3, 5))
    x, chi = g.element((1, 2)), g.character((1, 2))
    assert repr(x) == "(1, 2)" and repr(chi) == "chi(1, 2)"
    assert x != chi and x.index == chi.index == 7
    assert type(-x) is type(x) and type(x + x - x) is type(x)
    assert type(-chi) is type(chi) and type(chi + chi - chi) is type(chi)
    assert (x + x).coords == (2, 4) and (chi - chi).coords == (0, 0)


def test_char_arg_fraction_examples():
    z8 = GroupSpec((8,))
    assert z8.character((1,)).arg_fraction(z8.element((3,))) == Fraction(3, 8)
    assert z8.trivial_character().arg_fraction(z8.element((5,))) == 0
    g = GroupSpec((2, 3))
    assert g.character((1, 1)).arg_fraction(g.element((1, 2))) == Fraction(1, 6)


def test_char_order_examples():
    z8 = GroupSpec((8,))
    assert z8.character((2,)).order() == 4
    assert z8.trivial_character().order() == 1
    g = GroupSpec((4, 6))
    gamma = g.character((1, 1))
    assert gamma.order() == 12
    # oracle: smallest q >= 1 with q*gamma trivial, by scan
    q = 1
    while not all(q * c % n == 0 for c, n in zip(gamma.coords, g.orders)):
        q += 1
    assert q == 12


def test_kernel_examples():
    z8 = GroupSpec((8,))
    assert [e.coords for e in kernel_of_characters(z8, [z8.character((1,))]).elements()] == [(0,)]
    assert kernel_of_characters(z8, []).order == 8
    assert [e.coords for e in kernel_of_characters(z8, [z8.character((2,))]).elements()] == [
        (0,),
        (4,),
    ]


def test_enumerate_group():
    g = GroupSpec((2, 2))
    assert [e.coords for e in enumerate_group(g)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [e.coords for e in enumerate_group(GroupSpec((1,)))] == [(0,)]
    assert [e.coords for e in enumerate_group(GroupSpec((3,)))] == [(0,), (1,), (2,)]


def test_exponent_annihilates():
    for orders in [(8, 3), (4, 6), (2, 2, 2), (12,)]:
        g = GroupSpec(orders)
        for x in enumerate_group(g):
            assert (g.exponent * x).coords == g.zero().coords


@pytest.mark.parametrize("orders", [(16,), (4, 4), (2, 3, 5), (8, 2), (6, 6)])
def test_char_multiplicativity_exhaustive(orders):
    g = GroupSpec(orders)
    elems = enumerate_group(g)
    for ci in range(g.cardinality):
        gamma = g.character_at(ci)
        for x in elems[:8]:
            for y in elems[:8]:
                lhs = gamma.arg_fraction(x + y)
                rhs = (gamma.arg_fraction(x) + gamma.arg_fraction(y)) % 1
                assert lhs == rhs


@pytest.mark.parametrize("orders", [(12,), (4, 4), (2, 2, 3)])
def test_kernel_size_vs_image(orders):
    g = GroupSpec(orders)
    for ci in range(g.cardinality):
        gamma = g.character_at(ci)
        kernel = kernel_of_characters(g, [gamma])
        image = {gamma.arg_fraction(x) for x in enumerate_group(g)}
        assert kernel.order * len(image) == g.cardinality


def test_subgroup_closure_contains_identity_and_negatives():
    g = GroupSpec((12,))
    sub = subgroup_closure(g, [g.element((8,))])
    assert [e.coords for e in sub.elements()] == [(0,), (4,), (8,)]
    assert g.element((4,)) in sub


def test_reduce_generators_regenerates():
    """A kernel's generators, an invariant-factor basis, close back to the
    kernel, and their orders multiply to its order."""
    g = GroupSpec((4, 4))
    sub = kernel_of_characters(g, [g.character((2, 2))])
    regen = subgroup_closure(g, sub.generators)
    assert regen == sub
    assert [x.order() for x in sub.generators] == [4, 2]


def _closure_by_set(spec, gen_indices):
    closed, frontier = {0}, [0]
    while frontier:
        new = set()
        for g in gen_indices:
            for idx in spec.add_scalar(np.array(frontier), g):
                if int(idx) not in closed:
                    closed.add(int(idx))
                    new.add(int(idx))
        frontier = list(new)
    return sorted(closed)


def _character_kernels(spec):
    """The kernel of every character of G, sampled to 64 characters where
    G is larger: (character, kernel, brute-force kernel indices)."""
    indices = range(spec.cardinality)
    if spec.cardinality > 64:
        indices = Random(spec.cardinality).sample(indices, 64)
    for ci in indices:
        gamma = spec.character_at(ci)
        yield gamma, kernel_of_characters(spec, [gamma]), oracle_kernel(spec, [gamma])


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_closure_matches_set_loop(spec):
    """A closure is the set its generators reach by adding them one at a
    time; on every character kernel the generators reach the brute-force
    kernel, and their orders multiply to its order."""
    rng = Random(spec.cardinality + 1)
    for count in (0, 1, 1, 2, 2, 3):
        gens = [rng.randrange(spec.cardinality) for _ in range(count)]
        sub = subgroup_closure(spec, [spec.element_at(i) for i in gens])
        assert sub.indices.tolist() == _closure_by_set(spec, gens)
    for gamma, kernel, members in _character_kernels(spec):
        assert kernel.indices.tolist() == members, gamma
        assert _closure_by_set(spec, [g.index for g in kernel.generators]) == members, gamma
        assert math.prod(g.order() for g in kernel.generators) == len(members), gamma


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_index_roundtrip(n, salt):
    g = GroupSpec((n, (salt % 5) + 1))
    idx = salt % g.cardinality
    assert g.index_of(g.coords_of(idx)) == idx


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_first_primitive_character_matches_loop(spec):
    """The cyclic decomposition of every character kernel has the
    invariant factors that counts of element orders give, largest first,
    and generators of those orders."""
    for gamma, kernel, members in _character_kernels(spec):
        dec = subgroup_decomposition(kernel)
        assert list(dec.orders) == oracle_invariant_factors(spec, members), gamma
        assert [g.order() for g in dec.generators] == list(dec.orders), gamma


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_arg_numerators_over_group_match_the_coordinate_table(spec):
    """The group-wide evaluator gives, for every character, the arg
    numerators its coordinate rows give at every index of G."""
    coords = spec.decode(np.arange(spec.cardinality, dtype=np.int64))
    for cidx in range(spec.cardinality):
        gamma = spec.character_at(cidx)
        got = arg_numerators_over_group(gamma)
        assert got.dtype == np.int64
        assert got.tolist() == gamma.arg_numerators(coords).tolist(), gamma


@pytest.mark.parametrize(
    "orders,gens",
    [
        ((8,), [(2,)]),
        ((4, 4), [(1, 2)]),
        ((4, 4), [(2, 0), (0, 2)]),
        ((2, 4, 8), [(1, 2, 4), (0, 0, 2)]),
        ((6, 6), [(2, 3)]),
        ((9, 3), [(3, 1)]),
    ],
)
def test_subgroup_decomposition_direct_sum(orders, gens):
    g = GroupSpec(orders)
    sub = subgroup_closure(g, [g.element(c) for c in gens])
    dec = subgroup_decomposition(sub)
    assert dec.spec.cardinality == sub.order
    assert len(dec.from_model) == sub.order
    assert np.array_equal(np.sort(dec.from_model), sub.indices)
    assert np.array_equal(dec.from_model[dec.to_model(sub.indices)], sub.indices)
    # invariant factor chain: each order divides the one before
    for a, b in zip(dec.orders, dec.orders[1:]):
        assert a % b == 0
    # the bijection respects addition
    elems = sub.elements()
    for x in elems[:6]:
        for y in elems[:6]:
            mx, my, mxy = (
                dec.spec.element_at(int(i))
                for i in dec.to_model(np.array([x.index, y.index, (x + y).index]))
            )
            assert mxy == mx + my
    # from_model[(a_1, ..., a_r)] is a_1 g_1 + ... + a_r g_r
    for midx, idx in enumerate(dec.from_model.tolist()):
        point = g.zero()
        for a, gen in zip(dec.spec.coords_of(midx), dec.generators):
            point = point + a * gen
        assert idx == point.index


def _max_order_by_loop(spec, indices):
    best = None
    for idx in indices:
        e = spec.element_at(int(idx))
        if best is None or e.order() > best.order():
            best = e
    return best


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_max_order_element_matches_loop(spec):
    """The first generator of a cyclic decomposition has the largest order
    of any element of the subgroup, for closures of random elements."""
    rng = Random(spec.cardinality)
    for size in (1, 2, 5, spec.cardinality):
        indices = rng.sample(range(spec.cardinality), size)
        sub = subgroup_closure(spec, [spec.element_at(i) for i in indices])
        dec = subgroup_decomposition(sub)
        largest = _max_order_by_loop(spec, sub.indices).order()
        assert (dec.orders or (1,))[0] == largest, indices
        assert [g.order() for g in dec.generators] == list(dec.orders), indices


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_rows_build_the_objects_the_constructors_build(spec):
    rng = np.random.default_rng(spec.cardinality)
    coords = rng.integers(-3 * max(spec.orders), 3 * max(spec.orders), (12, spec.rank))
    elements = spec.elements_of_rows(coords)
    characters = spec.characters_of_rows(coords)
    assert elements == tuple(spec.element(row) for row in coords.tolist())
    assert characters == tuple(spec.character(row) for row in coords.tolist())
    assert [hash(x) for x in elements] == [hash(spec.element(row)) for row in coords.tolist()]
    assert [x.index for x in elements] == spec.encode(coords).tolist()
    assert spec.elements_of_rows(np.empty((0, spec.rank), dtype=np.int64)) == ()
    with pytest.raises(StructureError):
        spec.elements_of_rows(coords[:, :1] if spec.rank > 1 else coords.repeat(2, axis=1))


# orders whose coordinate sums leave int64
WIDE_SPECS = [GroupSpec((2**62 + 5,)), GroupSpec((2**62 - 1, 2)), GroupSpec(((1 << 63) - 25,))]
# groups cut into several blocks, or at the 2^10 edge of a table block:
# two tables, a table of exactly 2^10, two factors just past it, a factor of
# 2^10 beside one of 2, and a factor past 2^40 beside a (4, 4) table
BLOCK_SPECS = [
    GroupSpec((2,) * 20), GroupSpec((3,) * 12), GroupSpec((32, 32)), GroupSpec((33, 32)),
    GroupSpec((1024, 2)), GroupSpec((2**40, 4, 4)),
]


@pytest.mark.parametrize("spec", SMALL_SPECS + WIDE_SPECS + BLOCK_SPECS, ids=str)
def test_add_pairwise_matches_elementwise_sums(spec):
    """add_pairwise, add_aligned, add_scalar and negate_indices agree with
    element sums and negation, in int64, also where two coordinates add
    past 2^63 (the last index is in both); add_scalar refuses an index
    outside G rather than gather a table row at it."""
    rng = np.random.default_rng(spec.cardinality + 7)
    a = np.append(rng.integers(0, spec.cardinality, 9), spec.cardinality - 1)
    b = np.append(rng.integers(0, spec.cardinality, 13), spec.cardinality - 1)
    expected = [[(spec.element_at(int(x)) + spec.element_at(int(y))).index for y in b] for x in a]
    empty = spec.add_pairwise(a[:0], b)
    assert empty.shape == (0, len(b)) and empty.dtype == np.int64
    for got, want in [
        (spec.add_pairwise(a, b), expected),
        (spec.add_aligned(a, b[: len(a)]), [row[i] for i, row in enumerate(expected)]),
        (spec.add_scalar(a, int(b[-1])), [row[-1] for row in expected]),
        (spec.negate_indices(a), [(-spec.element_at(int(x))).index for x in a]),
    ]:
        assert got.dtype == np.int64 and got.tolist() == want
    for index in (-1, spec.cardinality):
        with pytest.raises(DomainError, match="out of range"):
            spec.add_scalar(a, index)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_kernel_matches_the_oracle(spec):
    """kernel_of_characters filters G one character at a time; its points
    are the ones the definition gives point by point, whatever the order
    of the characters, and its generators are an invariant-factor basis of
    them: of orders that divide one another, largest first, multiplying
    to the kernel's order, and reaching every point."""
    for label, chars in character_tuples(spec, seed=spec.cardinality):
        members = oracle_kernel(spec, chars)
        kernel = kernel_of_characters(spec, chars)
        assert kernel.indices.tolist() == members, label
        orders = [g.order() for g in kernel.generators]
        assert orders == oracle_invariant_factors(spec, members), label
        assert _closure_by_set(spec, [g.index for g in kernel.generators]) == members, label


def _product(x, y, cols):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(cols)]
            for i in range(len(x))]


def _echelon(rows, cols):
    """Row echelon form of a rational matrix by Gaussian elimination:
    (rank, determinant when square)."""
    rest = [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, Fraction(1)
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rest)) if rest[i][c]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rest[rank], rest[pivot] = rest[pivot], rest[rank]
            det = -det
        det *= rest[rank][c]
        for i in range(rank + 1, len(rest)):
            f = rest[i][c] / rest[rank][c]
            rest[i] = [x - f * y for x, y in zip(rest[i], rest[rank])]
        rank += 1
    return rank, det


def _inverse(x):
    """The inverse of a square rational matrix, by Gauss-Jordan."""
    k = len(x)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(k)]
           for i, row in enumerate(x)]
    for c in range(k):
        pivot = next(i for i in range(c, k) if aug[i][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(k):
            if i != c and aug[i][c]:
                aug[i] = [v - aug[i][c] * w for v, w in zip(aug[i], aug[c])]
    return [row[k:] for row in aug]


def _random_matrix(rng):
    m, n = rng.randrange(7), rng.randrange(7)
    pick = rng.randrange(4)

    def entry():
        if pick == 3 and rng.randrange(3) == 0:  # past 2^63
            return rng.choice((-1, 1)) * rng.randrange(1 << 63, 1 << 70)
        return rng.randrange(-9, 10) if pick else rng.randrange(-2, 3)

    a = [[entry() for _ in range(n)] for _ in range(m)]
    if m and rng.randrange(3) == 0:
        a[rng.randrange(m)] = [0] * n
    if n and rng.randrange(3) == 0:
        j = rng.randrange(n)
        for row in a:
            row[j] = 0
    if m >= 2 and rng.randrange(3) == 0:  # a dependent row
        a[-1] = [x - 3 * y for x, y in zip(a[0], a[1])]
    return a, n


def test_smith_normal_form_diagonalizes_with_unimodular_transforms():
    """u.a.v is diagonal with positive entries, each dividing the next, as
    many as the rank; u and v are invertible over the integers (v is the
    inverse of the carried identity); and the left kernel rows, rows - rank
    of them, annihilate a.  Shapes run from 0x0 to 6x6, with zero rows,
    zero columns and entries past 2^63."""
    rng = Random(63)
    for _ in range(300):
        a, n = _random_matrix(rng)
        m = len(a)
        d, u, carried = smith_normal_form(
            a, left=True, carry=[[int(i == j) for j in range(n)] for i in range(n)])
        v = _inverse(carried)
        assert all(x.denominator == 1 for row in v for x in row), a
        assert abs(_echelon(u, m)[1]) == 1 and abs(_echelon(carried, n)[1]) == 1, a
        rank = _echelon(a, n)[0]
        assert len(d) == rank and all(x > 0 for x in d), a
        assert all(y % x == 0 for x, y in zip(d, d[1:])), a
        assert _product(_product(u, a, n), v, n) == [
            [d[i] if i == j and i < rank else 0 for j in range(n)] for i in range(m)], a
        kernel = u[rank:]
        assert len(kernel) == m - rank, a
        assert all(row == [0] * n for row in _product(kernel, a, n)), a
        assert smith_normal_form(a) == (d, None, None), a
