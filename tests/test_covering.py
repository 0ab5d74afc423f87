from fractions import Fraction

import numpy as np
import pytest

from cosetprog import (
    CosetProgression,
    CoverInput,
    DomainError,
    GroupSet,
    GroupSpec,
    chang_cover,
    doubling,
    greedy_disjoint_translates,
    iterated_sumset,
    materialize,
    subgroup_closure,
)
from cosetprog.covering import judge_cover


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

    if budget is not None:  # a few rows a block in the sums of P - P
        monkeypatch.setattr(sumsets, "_PAIR_BUDGET", budget)
    cases = []
    for orders, size_a, size_p in [((64,), 30, 3), ((6, 6), 20, 4), ((2, 4, 8), 40, 5)]:
        spec = GroupSpec(orders)
        cases.append((gen_random(spec, size_a, 1), gen_random(spec, size_p, 2)))
    spec = GroupSpec((4, 8))  # P = G: the first translate covers G, so R is {min A}
    cases.append((gen_random(spec, 20, 3), GroupSet.full(spec)))
    for a, p in cases:
        got = greedy_disjoint_translates(a, p)
        assert got.indices.tolist() == _greedy_one_translate_at_a_time(a, p)
    assert got.indices.tolist() == [int(a.indices[0])]


def _faults(cover_input, r_sets=(), s_sets=(), **kwargs):
    """The judge's entries as a dict from name to fault."""
    return dict(judge_cover(cover_input, r_sets, s_sets, **kwargs)[1])


def test_judge_names_an_improper_input():
    g = GroupSpec((8,))
    a = _interval(g, 2)
    h = subgroup_closure(g, [])
    bad = CosetProgression(g, g.zero(), (g.element((1,)),), ((0, 8),), h, False)
    assert _faults(CoverInput.derive(a, bad, doubling(a)))["cover_input_proper"] == (
        "|P + H| = 8, formal size 9, marked proper 0"
    )
    with pytest.raises(DomainError, match=r"^cover_input_proper: \|P \+ H\| = 8, formal size 9"):
        CoverInput.build(a, bad)


def test_judge_reads_properness_by_count_only_when_asked():
    """A progression that counts proper but is not marked proper is a fault
    to verify and an accepted input to ``CoverInput.build``."""
    g = GroupSpec((8,))
    a = _interval(g, 2)
    unmarked = CosetProgression(g, g.zero(), (g.element((1,)),), ((0, 1),), subgroup_closure(g, []),
                                False)
    cover_input = CoverInput.derive(a, unmarked, doubling(a))
    assert _faults(cover_input)["cover_input_proper"] == (
        "|P + H| = 2, formal size 2, marked proper 0"
    )
    assert _faults(cover_input, count_only=True)["cover_input_proper"] == ""
    assert CoverInput.build(a, unmarked).realized.size == 2


def test_judge_names_an_input_outside_2a_minus_2a():
    g = GroupSpec((32,))
    a = _interval(g, 2)
    h = subgroup_closure(g, [])
    wide = CosetProgression(g, g.zero(), (g.element((1,)),), ((-9, 9),), h, True)
    assert _faults(CoverInput.derive(a, wide, doubling(a)))["cover_input_contained"] == (
        "14 of the 19 point(s) of P + H lie outside 2A - 2A (5 point(s))"
    )
    with pytest.raises(DomainError, match=r"^cover_input_contained: 14 of the 19 point\(s\)"):
        CoverInput.build(a, wide)


def _two_round_cover():
    """[0, 20) in Z/128 covered from P_0 = [-1, 1]: R_0 = {0, 3, ..., 18},
    S_0 = {0, 3, 6, 9}, P_1 = [-1, 10] and R_1 = {0, 12}, with ceil(2K) = 4."""
    g = GroupSpec((128,))
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((-1, 1),), subgroup_closure(g, []),
                          True)
    trace = chang_cover(CoverInput.build(_interval(g, 20), cp))
    assert trace.p_sizes == (3, 12) and trace.input.mk == 4
    return trace


def test_judge_passes_the_rounds_chang_cover_chose():
    trace = _two_round_cover()
    p_sets, faults = judge_cover(trace.input, trace.r_sets, trace.s_sets)
    assert [p.size for p in p_sets] == list(trace.p_sizes)
    assert [name for name, _ in faults] == [
        "cover_input_proper", "cover_input_contained",
        "cover_round_0_disjoint", "cover_round_0_maximal", "cover_round_0_batch",
        "cover_round_0_growth",
        "cover_round_1_disjoint", "cover_round_1_maximal",
        "cover_rt_small",
    ]
    assert all(fault == "" for _, fault in faults)


def test_judge_names_a_batch_whose_translates_overlap():
    """S_0 = {0, 1, 2, 3}: the translates of P_0 = [-1, 1] overlap, so P_1
    is [-1, 4], 6 points, not 3 * 4."""
    trace = _two_round_cover()
    overlapping = _interval(trace.input.set.spec, 4)
    faults = _faults(trace.input, trace.r_sets, (overlapping,))
    assert faults["cover_round_0_growth"] == "|P_1| = 6, not 3 * 4"
    assert faults["cover_round_0_batch"] == (
        "|S_0| = 4 with 2 point(s) outside R_0, |R_0| = 7, ceil(2K) = 4"
    )


def test_judge_names_a_last_round_with_too_many_translates():
    """R_0 of seven translates as the last round: more than ceil(2K) = 4."""
    trace = _two_round_cover()
    assert _faults(trace.input, trace.r_sets[:1])["cover_rt_small"] == (
        "|R_0| = 7 exceeds ceil(2K) = 4"
    )


def _first_uncovered(a, p, r):
    """The first x of A, in canonical order, that is not in R and whose
    P + x misses every P + y, y in R, by a scan over the translates; None
    if there is none."""
    spec, members = a.spec, set(r.indices.tolist())
    covered = set()
    for y in members:
        covered |= set(spec.add_scalar(p.indices, y).tolist())
    for x in a.indices.tolist():
        if x not in members and not covered & set(spec.add_scalar(p.indices, x).tolist()):
            return x
    return None


def test_judge_maximality_matches_a_scan_over_the_translates():
    """R maximal, with a point dropped, with a point outside A added and with
    a point of A added whose translate meets another: the judge's verdict on
    round 0, and the point it names, are the scan's."""
    from cosetprog.generators import gen_random

    kinds = set()
    for orders, size_a, gen, length in [((64,), 24, (1,), 3), ((6, 6), 14, (1, 1), 2),
                                        ((2, 4, 8), 30, (1, 1, 3), 2), ((101,), 40, (7,), 4)]:
        spec = GroupSpec(orders)
        for seed in (1, 2, 3):
            a = gen_random(spec, size_a, seed)
            cp = CosetProgression(spec, spec.zero(), (spec.element(gen),), ((0, length),),
                                  subgroup_closure(spec, []), True)
            cover_input = CoverInput.derive(a, cp, doubling(a))
            p = cover_input.realized
            r = greedy_disjoint_translates(a, p)
            others = np.setdiff1d(a.indices, r.indices)
            outside = np.setdiff1d(np.arange(spec.cardinality), a.indices)
            rs = {"maximal": r, "dropped": GroupSet(spec, r.indices[1:])}
            if others.size:
                rs["not disjoint"] = GroupSet(spec, np.append(r.indices, others[0]))
            if outside.size:
                rs["outside A"] = GroupSet(spec, np.append(r.indices, outside[0]))
            for kind, r_0 in rs.items():
                x = _first_uncovered(a, p, r_0)
                fault = _faults(cover_input, (r_0,))["cover_round_0_maximal"]
                if x is None:
                    assert fault == "", (orders, seed, kind)
                else:
                    e = spec.element_at(x)
                    assert fault == (
                        f"{e!r} is in A but not in R_0, and P_0 + {e!r} misses P_0 + R_0"
                    ), (orders, seed, kind)
                kinds.add((kind, x is None))
    # every kind was judged, and a dropped point broke maximality somewhere
    assert {kind for kind, _ in kinds} == {"maximal", "dropped", "not disjoint", "outside A"}
    assert ("maximal", True) in kinds and ("dropped", False) in kinds
