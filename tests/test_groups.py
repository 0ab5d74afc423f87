from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetprog import (
    GroupSpec,
    StructureError,
    enumerate_group,
    kernel_of_characters,
    subgroup_closure,
    subgroup_decomposition,
)
from cosetprog.groups import (
    _closure_indices,
    _first_primitive_character,
    _max_order_element,
    arg_numerators_over_group,
    reduce_generators,
)

from conftest import SMALL_SPECS, character_tuples, oracle_kernel


def test_elem_add_modular():
    g = GroupSpec((8, 3))
    assert (g.element((7, 2)) + g.element((2, 2))).coords == (1, 1)


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
    g = GroupSpec((4, 4))
    sub = kernel_of_characters(g, [g.character((2, 2))])
    regen = subgroup_closure(g, reduce_generators(sub))
    assert regen == sub


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


def _reduce_generators_by_set(subgroup):
    gens, have = [], {0}
    for idx in subgroup.indices:
        if len(have) == subgroup.order:
            break
        if int(idx) not in have:
            gens.append(int(idx))
            have = set(_closure_by_set(subgroup.spec, gens))
    return gens


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_closure_matches_set_loop(spec):
    rng = Random(spec.cardinality + 1)
    for count in (0, 1, 1, 2, 2, 3):
        gens = [rng.randrange(spec.cardinality) for _ in range(count)]
        closed = _closure_indices(spec, gens)
        assert closed.tolist() == _closure_by_set(spec, gens)
        sub = subgroup_closure(spec, [spec.element_at(i) for i in gens])
        assert [g.index for g in reduce_generators(sub)] == _reduce_generators_by_set(sub)
    for ci in rng.sample(range(spec.cardinality), 4):
        kernel = kernel_of_characters(spec, [spec.character_at(ci)])
        assert [g.index for g in kernel.generators] == _reduce_generators_by_set(kernel)


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_index_roundtrip(n, salt):
    g = GroupSpec((n, (salt % 5) + 1))
    idx = salt % g.cardinality
    assert g.index_of(g.coords_of(idx)) == idx


def _first_primitive_by_loop(g):
    spec = g.spec
    for cidx in range(spec.cardinality):
        gamma = spec.character_at(cidx)
        if gamma.arg_fraction(g).denominator == g.order():
            return gamma
    return None


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_first_primitive_character_matches_loop(spec):
    rng = Random(spec.cardinality)
    indices = range(spec.cardinality)
    if spec.cardinality > 64:
        indices = rng.sample(indices, 64)
    for idx in indices:
        g = spec.element_at(idx)
        assert _first_primitive_character(g) == _first_primitive_by_loop(g), g


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
    assert len(dec.to_model) == sub.order
    assert sorted(dec.to_model.values()) == list(range(sub.order))
    # invariant factor chain: each order divides the one before
    for a, b in zip(dec.orders, dec.orders[1:]):
        assert a % b == 0
    # the bijection respects addition
    elems = sub.elements()
    for x in elems[:6]:
        for y in elems[:6]:
            mx = dec.spec.element_at(dec.to_model[x.index])
            my = dec.spec.element_at(dec.to_model[y.index])
            assert dec.to_model[(x + y).index] == (mx + my).index
    # from_model[(a_1, ..., a_r)] is a_1 g_1 + ... + a_r g_r
    for midx, idx in dec.from_model.items():
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
    rng = Random(spec.cardinality)
    for size in (1, 2, 5, spec.cardinality):
        indices = np.array(sorted(rng.sample(range(spec.cardinality), size)), dtype=np.int64)
        assert _max_order_element(spec, indices) == _max_order_by_loop(spec, indices)


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


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_add_pairwise_matches_elementwise_sums(spec):
    rng = np.random.default_rng(spec.cardinality + 7)
    a = rng.integers(0, spec.cardinality, 9)
    b = rng.integers(0, spec.cardinality, 13)
    expected = [[(spec.element_at(int(x)) + spec.element_at(int(y))).index for y in b] for x in a]
    assert spec.add_pairwise(a, b).tolist() == expected
    assert spec.add_pairwise(a[:0], b).shape == (0, len(b))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_kernel_matches_the_oracle(spec):
    """kernel_of_characters filters G one character at a time; its points
    and generators are the ones the definition gives point by point,
    whatever the order of the characters."""
    for label, chars in character_tuples(spec, seed=spec.cardinality):
        members, generators = oracle_kernel(spec, chars)
        kernel = kernel_of_characters(spec, chars)
        assert kernel.indices.tolist() == members, label
        assert [g.coords for g in kernel.generators] == generators, label
