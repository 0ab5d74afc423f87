from fractions import Fraction

import pytest

from cosetprog import (
    CosetProgression,
    CoverInput,
    DomainError,
    GroupSet,
    GroupSpec,
    chang_cover,
    greedy_disjoint_translates,
    iterated_sumset,
    materialize,
    subgroup_closure,
)


def _interval(spec, length):
    return GroupSet.from_coords(spec, [(i,) for i in range(length)])


def test_greedy_coinciding_translates():
    g = GroupSpec((8,))
    h = GroupSet.from_coords(g, [(0,), (4,)])
    r = greedy_disjoint_translates(h, h)
    assert [e.coords[0] for e in r.elements()] == [0]


def test_greedy_singletons_keep_everything():
    g = GroupSpec((16,))
    a = GroupSet.from_coords(g, [(1,), (5,), (6,)])
    p = GroupSet.from_coords(g, [(0,)])
    assert greedy_disjoint_translates(a, p) == a


def test_greedy_trace_example():
    g = GroupSpec((8,))
    a = _interval(g, 4)
    p = _interval(g, 2)
    r = greedy_disjoint_translates(a, p)
    assert [e.coords[0] for e in r.elements()] == [0, 2]


def test_cover_input_rejects_improper():
    g = GroupSpec((8,))
    h = subgroup_closure(g, [])
    bad = CosetProgression(g, g.zero(), (g.element((1,)),), ((0, 8),), h, False)
    with pytest.raises(DomainError):
        CoverInput.build(_interval(g, 2), bad)


def test_cover_input_rejects_escape():
    g = GroupSpec((32,))
    h = subgroup_closure(g, [])
    wide = CosetProgression(g, g.zero(), (g.element((1,)),), ((-9, 9),), h, True)
    with pytest.raises(DomainError):
        CoverInput.build(_interval(g, 2), wide)


def test_cover_subgroup_case():
    g = GroupSpec((24,))
    h_set = GroupSet.from_coords(g, [(0,), (8,), (16,)])
    h = subgroup_closure(g, [g.element((8,))])
    cp = CosetProgression(g, g.zero(), (), (), h, True)
    trace = chang_cover(CoverInput.build(h_set, cp))
    assert trace.t == 0
    assert trace.r_sets[0].size == 1
    assert h_set.is_subset(materialize(trace.q))
    assert trace.q.dimension <= 1
    assert trace.all_passed


def test_cover_interval_single_round():
    g = GroupSpec((100,))
    a = _interval(g, 10)
    d22 = iterated_sumset(a, 2, 2)
    h = subgroup_closure(g, [])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((-18, 18),), h, True)
    assert materialize(cp).is_subset(d22)
    trace = chang_cover(CoverInput.build(a, cp))
    assert trace.t == 0
    assert trace.r_sets[0].size == 1
    assert a.is_subset(materialize(trace.q))
    assert trace.all_passed


def test_cover_growth_and_envelope_checks_recorded():
    g = GroupSpec((128,))
    a = GroupSet.from_coords(g, [(i,) for i in (0, 1, 2, 3, 40, 41, 42, 43)])
    h = subgroup_closure(g, [])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((-3, 3),), h, True)
    trace = chang_cover(CoverInput.build(a, cp))
    names = {c.name for c in trace.checks}
    assert {
        "cover_growth_products",
        "cover_iterate_envelope",
        "cover_iterate_size",
        "cover_termination",
        "cover_containment",
        "cover_dimension",
        "cover_size",
    } <= names
    assert trace.all_passed
    # exact growth at every recorded step
    for i in range(trace.t):
        assert trace.p_sizes[i + 1] == trace.p_sizes[i] * trace.s_sets[i].size
    k = trace.input.doubling.k
    assert Fraction(trace.p_sizes[trace.t]) <= k ** (trace.t + 4) * a.size
    assert trace.input.eta * Fraction(2) ** trace.t <= k**4


def test_cover_termination_bound_base_two():
    g = GroupSpec((64,))
    a = GroupSet.from_coords(g, [(i,) for i in range(6)])
    h = subgroup_closure(g, [])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((-1, 1),), h, True)
    trace = chang_cover(CoverInput.build(a, cp))
    k = trace.input.doubling.k
    assert 2 ** trace.t <= float(k**4 / trace.input.eta)
    assert a.is_subset(materialize(trace.q))


def _greedy_one_translate_at_a_time(a, p):
    covered, keep = set(), []
    for x in a.indices.tolist():
        translate = set(a.spec.add_scalar(p.indices, x).tolist())
        if not translate & covered:
            keep.append(x)
            covered |= translate
    return keep


@pytest.mark.parametrize("budget", [None, 7], ids=["one-block", "many-blocks"])
def test_greedy_blocks_keep_the_one_at_a_time_choice(budget, monkeypatch):
    from cosetprog import sumsets
    from cosetprog.generators import gen_random

    if budget is not None:  # a few rows of A + P per block
        monkeypatch.setattr(sumsets, "_PAIR_BUDGET", budget)
    for orders, size_a, size_p in [((64,), 30, 3), ((6, 6), 20, 4), ((2, 4, 8), 40, 5)]:
        spec = GroupSpec(orders)
        a = gen_random(spec, size_a, 1)
        p = gen_random(spec, size_p, 2)
        got = greedy_disjoint_translates(a, p)
        assert got.indices.tolist() == _greedy_one_translate_at_a_time(a, p)
