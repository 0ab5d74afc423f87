from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetprog import (
    DomainError,
    DoublingReport,
    GroupSet,
    GroupSpec,
    StructureError,
    difference_set,
    doubling,
    iterated_sumset,
    plunnecke_check,
    sumset,
)
from cosetprog import sumsets
from cosetprog.generators import gen_random
from cosetprog.textio import write_group_set

from conftest import SMALL_SPECS, oracle_iterated, oracle_sumset, structured_sets


def _coord_set(s):
    return {tuple(int(c) for c in r) for r in s.coords()}


def _canonical(s):
    return bool(np.all(np.diff(s.indices) > 0))


def _interval(spec, lo, hi):
    return GroupSet.from_coords(spec, [(i % spec.orders[0],) for i in range(lo, hi + 1)])


def test_sumset_progression():
    z8 = GroupSpec((8,))
    a = _interval(z8, 0, 2)
    assert [e.coords[0] for e in sumset(a, a).elements()] == [0, 1, 2, 3, 4]


def test_sumset_subgroup_idempotent():
    g = GroupSpec((2, 2))
    a = GroupSet.full(g)
    assert sumset(a, a) == a


def test_sumset_zero_identity():
    z8 = GroupSpec((8,))
    b = GroupSet.from_coords(z8, [(3,), (5,)])
    zero = GroupSet.from_coords(z8, [(0,)])
    assert sumset(zero, b) == b


def test_iterated_examples():
    z8 = GroupSpec((8,))
    a = _interval(z8, 0, 1)
    got = sorted(e.coords[0] for e in iterated_sumset(a, 2, 2).elements())
    assert got == [0, 1, 2, 6, 7]
    assert iterated_sumset(a, 1, 0) == a
    z16 = GroupSpec((16,))
    b = GroupSet.from_coords(z16, [(0,), (1,), (3,)])
    want = oracle_iterated(b, 2, 1)
    assert {tuple(int(c) for c in r) for r in iterated_sumset(b, 2, 1).coords()} == want


def test_iterated_rejects_empty_folds():
    z8 = GroupSpec((8,))
    a = _interval(z8, 0, 1)
    with pytest.raises(DomainError):
        iterated_sumset(a, 0, 0)


def test_doubling_examples():
    z32 = GroupSpec((32,))
    ap = _interval(z32, 0, 4)
    assert doubling(ap).k == Fraction(9, 5)
    g = GroupSpec((8,))
    sub = GroupSet.from_coords(g, [(0,), (4,)])
    assert doubling(sub).k == 1


def test_doubling_counterexample_instance():
    from cosetprog import gen_counterexample

    report = gen_counterexample([2, 3], 5)
    assert (report.size, report.sumset_size) == (20, 30)
    assert report.doubling == Fraction(3, 2)


def test_doubling_of_a_sparse_set_in_a_huge_group():
    spec = GroupSpec((10**12,))
    a = GroupSet(spec, np.array([0, 5, 10**12 - 1]))
    assert doubling(a) == DoublingReport(3, 6, Fraction(2))
    assert sumset(a, a) == GroupSet(spec, np.array([0, 4, 5, 10, 10**12 - 2, 10**12 - 1]))


def test_doubling_empty_rejected():
    with pytest.raises(DomainError):
        doubling(GroupSet.empty(GroupSpec((4,))))


def test_plunnecke_examples():
    z8 = GroupSpec((8,))
    a = _interval(z8, 0, 1)
    rep = plunnecke_check(a, 2, 2)
    assert rep.holds and rep.lhs == 5
    assert rep.rhs == Fraction(3, 2) ** 4 * 2
    sub = GroupSet.from_coords(z8, [(0,), (4,)])
    rep2 = plunnecke_check(sub, 3, 1)
    assert rep2.holds and rep2.lhs == 2 and rep2.rhs == 2


def test_sumset_matches_oracle_small():
    for seed in range(6):
        spec = GroupSpec((6, 4)) if seed % 2 else GroupSpec((24,))
        a = gen_random(spec, 5, seed)
        b = gen_random(spec, 4, seed + 100)
        got = {tuple(int(c) for c in r) for r in sumset(a, b).coords()}
        assert got == oracle_sumset(a, b)


@pytest.mark.parametrize("mask_ratio", [None, 0], ids=["default", "sorted"])
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_sumset_and_iterated_match_oracle_on_zoo_shapes(spec, mask_ratio, monkeypatch):
    if mask_ratio is not None:  # no group is small enough for the mask
        monkeypatch.setattr(sumsets, "_MASK_RATIO", mask_ratio)
    empty, full = GroupSet.empty(spec), GroupSet.full(spec)
    single = gen_random(spec, 1, 5)
    small = gen_random(spec, min(5, spec.cardinality), 6)
    pairs = [(empty, small), (small, empty), (empty, empty), (single, small),
             (small, single), (full, single), (small, full)]
    pairs += [(x, x) for x in structured_sets(spec, 3)]
    for a, b in pairs:
        got = sumset(a, b)
        assert _canonical(got) and _coord_set(got) == oracle_sumset(a, b)
    folds = [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (0, 3)]
    for x in (empty, single, small):
        for k, l in folds:
            got = iterated_sumset(x, k, l)
            assert _canonical(got) and _coord_set(got) == oracle_iterated(x, k, l)
    assert iterated_sumset(full, 2, 1) == full


def test_is_subset_matches_set_inclusion():
    spec = GroupSpec((6, 4))
    sets = [GroupSet.empty(spec), GroupSet.full(spec)]
    sets += [gen_random(spec, size, seed) for seed in range(8) for size in (1, 3, 12)]
    sets += [sumset(x, y) for x, y in zip(sets[2:], sets[3:])]
    for a in sets:
        for b in sets:
            assert a.is_subset(b) == (_coord_set(a) <= _coord_set(b))


@pytest.mark.parametrize("orders", [(16,), (4, 4), (2, 2, 2, 2)])
def test_sumset_commutative_associative(orders):
    spec = GroupSpec(orders)
    a = gen_random(spec, 4, 1)
    b = gen_random(spec, 4, 2)
    c = gen_random(spec, 3, 3)
    assert sumset(a, b) == sumset(b, a)
    assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))


def test_contains_zero_implies_subset():
    spec = GroupSpec((32,))
    a = GroupSet.from_coords(spec, [(0,), (3,), (7,)])
    assert a.is_subset(sumset(a, a))


def test_iterated_recursion_consistency():
    spec = GroupSpec((64,))
    a = gen_random(spec, 6, 9)
    for k in range(2, 4):
        assert iterated_sumset(a, k, 1) == sumset(iterated_sumset(a, k - 1, 1), a)


def _counting_sumset(monkeypatch) -> list:
    """Count the sums built from here on; the kept sums are built by ``sumset``."""
    built = []
    original = sumsets.sumset

    def counted(a, b):
        built.append((a.size, b.size))
        return original(a, b)

    monkeypatch.setattr(sumsets, "sumset", counted)
    return built


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_kept_sums_asked_out_of_order_match_the_oracle(spec, monkeypatch):
    built = _counting_sumset(monkeypatch)
    for x in (gen_random(spec, 1, 5), gen_random(spec, 3, 6), gen_random(spec, 4, 7)):
        fresh = GroupSet(spec, x.indices)
        got = iterated_sumset(fresh, 3, 2)
        assert _canonical(got) and _coord_set(got) == oracle_iterated(x, 3, 2)
        # 2A, 3A, 3A - A, 3A - 2A and nothing else
        assert len(built) == 4
        for k, l in [(2, 2), (2, 0), (3, 1), (0, 2)]:
            got = iterated_sumset(fresh, k, l)
            assert _canonical(got) and _coord_set(got) == oracle_iterated(x, k, l)
        # 2A - A and 2A - 2A extend the kept 2A, -2A extends the kept -A
        assert len(built) == 7
        assert doubling(fresh).sumset_size == iterated_sumset(fresh, 2, 0).size
        assert difference_set(fresh) == iterated_sumset(x, 1, 1)
        assert len(built) == 9  # A - A once for each of the two objects
        built.clear()


def test_kept_sums_leave_value_equality_hash_and_text():
    spec = GroupSpec((12, 6))
    a = gen_random(spec, 9, 4)
    iterated_sumset(a, 3, 2)
    difference_set(a)
    doubling(a)
    copy = GroupSet(spec, a.indices.copy())
    assert a._sums and not copy._sums
    assert a == copy and hash(a) == hash(copy)
    assert len({a, copy}) == 1
    assert write_group_set(a) == write_group_set(copy)


@pytest.mark.parametrize("orders, coset", [
    ((16,), lambda r: r[0] % 2 == 0),
    ((2, 2, 2, 2, 2), lambda r: r[0] == 0),
    ((6, 6), lambda r: (r[0] + r[1]) % 2 == 0),
])
def test_index_two_subgroup_sum_is_the_subgroup_not_g(orders, coset):
    spec = GroupSpec(orders)
    h = GroupSet.from_coords(spec, [r for r in spec.decode(np.arange(spec.cardinality)) if coset(r)])
    assert h.size + h.size == spec.cardinality
    assert sumset(h, h) == h
    assert _coord_set(sumset(h, h)) == oracle_sumset(h, h)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_sizes_one_past_the_group_sum_to_g(spec):
    card = spec.cardinality
    for m in (2, card // 2):
        a = gen_random(spec, m, 7)
        b = gen_random(spec, card + 1 - m, 8)
        got = sumset(a, b)
        assert got == GroupSet.full(spec)
        assert _coord_set(got) == oracle_sumset(a, b)


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=120, deadline=None)
def test_plunnecke_property(n, seed):
    spec = GroupSpec((n,))
    size = 1 + seed % min(n, 10)
    a = gen_random(spec, size, seed)
    for k, l in [(1, 1), (2, 0), (2, 1), (2, 2)]:
        assert plunnecke_check(a, k, l).holds


@given(st.integers(min_value=2, max_value=128), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=80, deadline=None)
def test_difference_set_squared_bound(n, seed):
    spec = GroupSpec((n,))
    a = gen_random(spec, 1 + seed % min(n, 12), seed)
    k = doubling(a).k
    assert difference_set(a).size <= k * k * a.size


def test_from_coords_reads_rows_of_the_group_rank():
    spec = GroupSpec((6, 4))
    a = GroupSet.from_coords(spec, [(7, -1), (1, 3), (0, 0)])
    assert a.indices.tolist() == [0, 7]
    assert GroupSet.from_coords(spec, np.array([[1, 3], [1, 3]])) == GroupSet(spec, [7])
    assert GroupSet.from_coords(spec, []) == GroupSet.empty(spec)
    with pytest.raises(StructureError):
        GroupSet.from_coords(spec, [(1,), (2,)])


def test_group_set_sorts_and_drops_repeats_of_any_shape():
    spec = GroupSpec((10,))
    assert GroupSet(spec, [5, 1, 5, 9, 1]).indices.tolist() == [1, 5, 9]
    assert GroupSet(spec, np.array([[3, 2], [2, 0]])).indices.tolist() == [0, 2, 3]
    with pytest.raises(StructureError):
        GroupSet(spec, [3, 10])
