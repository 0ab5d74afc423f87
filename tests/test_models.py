import math
from fractions import Fraction
from random import Random

import pytest

from cosetprog import (
    DomainError,
    FreimanMap,
    GroupSet,
    GroupSpec,
    doubling,
    f2_shrink,
    find_concentrating_character,
    is_freiman_iso,
    minimize_model,
    shrink_model_step,
    z_model,
)
from cosetprog import models
from cosetprog.sumsets import difference_set
from cosetprog.generators import gen_random, gen_random_in_progression

from conftest import zoo_sets


def _interval(spec, length):
    return GroupSet.from_coords(spec, [(i,) for i in range(length)])


def test_find_character_narrow_interval():
    g = GroupSpec((1000,))
    a = _interval(g, 3)
    cand = find_concentrating_character(a, Fraction(1, 21))
    assert cand is not None
    assert cand.gamma.coords == (1,)
    assert cand.q == 1000
    assert (cand.start, cand.length) == (0, 2)


def test_find_character_full_group_none():
    g = GroupSpec((24,))
    assert find_concentrating_character(GroupSet.full(g), Fraction(1, 21)) is None


def test_find_character_subgroup_lands_in_kernel():
    g = GroupSpec((12,))
    sub = GroupSet.from_coords(g, [(0,), (4,), (8,)])
    cand = find_concentrating_character(sub, Fraction(1, 21))
    assert cand is not None
    assert cand.length == 0
    assert all(cand.gamma.arg_fraction(e) == 0 for e in sub.elements())


def test_shrink_step_z1000():
    g = GroupSpec((1000,))
    a = _interval(g, 3)
    stage = shrink_model_step(a, 2, g.character((1,)), 1000, (0, 2))
    assert stage.set_after.spec.orders == (5,)  # trivial kernel x Z/(s*l+1)
    assert sorted(e.coords[0] for e in stage.set_after.elements()) == [0, 1, 2]
    assert is_freiman_iso(stage.map, 2).ok


def test_shrink_step_kernel_only():
    g = GroupSpec((12,))
    sub = GroupSet.from_coords(g, [(0,), (4,), (8,)])
    gamma = g.character((3,))  # order 4, kernel {0,4,8}
    stage = shrink_model_step(sub, 2, gamma, 4, (0, 0))
    assert stage.set_after.spec.orders == (3,)  # l = 0: the kernel alone
    assert stage.set_after == GroupSet.full(stage.set_after.spec)
    assert is_freiman_iso(stage.map, 2).ok


@pytest.mark.parametrize("s, l", [(2, 1), (2, 3), (3, 2), (4, 1), (8, 2)])
def test_shrink_step_modulus_is_tight(s, l):
    g = GroupSpec((100,))
    a = _interval(g, l + 1)
    stage = shrink_model_step(a, s, g.character((1,)), 100, (0, l))
    assert stage.set_after.spec.orders == (s * l + 1,)
    for m, iso in ((s * l + 1, True), (s * l, False)):
        # s copies of l and s copies of 0 agree mod s*l, not mod s*l + 1
        table = {x: x % m for x in range(l + 1)}
        theta = FreimanMap(a, GroupSpec((m,)), table)
        assert is_freiman_iso(theta, s).ok is iso


def test_shrink_step_q2_drops_factor():
    g = GroupSpec((2, 8))
    a = GroupSet.from_coords(g, [(0, 0), (0, 1), (0, 3)])
    gamma = g.character((1, 0))  # order 2, A inside the kernel
    stage = shrink_model_step(a, 2, gamma, 2, (0, 0))
    assert stage.set_after.spec.cardinality == 8


def test_shrink_step_rejects_wide_interval():
    g = GroupSpec((100,))
    a = _interval(g, 30)
    with pytest.raises(DomainError):
        shrink_model_step(a, 2, g.character((1,)), 100, (0, 29))


def test_minimize_model_z1000():
    g = GroupSpec((1000,))
    a = _interval(g, 3)
    trace = minimize_model(a, 2)
    assert trace.stages
    assert trace.final_set.spec.cardinality < 1000
    assert trace.density_final > trace.density_initial
    assert is_freiman_iso(trace.composite, 2).ok


def test_minimize_model_full_group_zero_steps():
    g = GroupSpec((36,))
    trace = minimize_model(GroupSet.full(g), 2)
    assert trace.is_identity


def test_minimize_model_subgroup_reaches_density_one():
    g = GroupSpec((12,))
    sub = GroupSet.from_coords(g, [(0,), (6,)])
    trace = minimize_model(sub, 2)
    assert trace.density_final == 1
    assert is_freiman_iso(trace.composite, 2).ok


def test_f2_shrink_pair_to_two_points():
    g = GroupSpec((2, 2, 2, 2))
    a = GroupSet.from_coords(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    trace = f2_shrink(a)
    assert trace.final_set.spec.cardinality == 2
    k = doubling(a).k
    assert Fraction(trace.final_set.spec.cardinality) <= k**4 * a.size
    for stage in trace.stages:
        assert is_freiman_iso(stage.map, 2).ok


def test_f2_shrink_whole_space_zero_steps():
    g = GroupSpec((2, 2, 2))
    assert f2_shrink(GroupSet.full(g)).is_identity


def test_f2_shrink_basis_zero_steps():
    g = GroupSpec((2, 2, 2))
    a = GroupSet.from_coords(g, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    trace = f2_shrink(a)
    assert trace.is_identity  # K^4 |A| = (4/3)^4 * 3 > 8


def test_f2_shrink_rejects_other_groups():
    with pytest.raises(DomainError):
        f2_shrink(GroupSet.from_coords(GroupSpec((4,)), [(0,)]))


def test_f2_shrink_single_point_to_trivial_group():
    g = GroupSpec((2, 2))
    trace = f2_shrink(GroupSet.from_coords(g, [(1, 0)]))
    assert trace.final_set.spec.cardinality == 1


def test_shrink_step_to_trivial_group():
    g = GroupSpec((2,))
    a = GroupSet.from_coords(g, [(0,)])
    stage = shrink_model_step(a, 2, g.character((1,)), 2, (0, 0))
    assert stage.set_after.spec.cardinality == 1


def test_z_model_examples():
    assert z_model([0, 1, 2]).modulus == 5
    assert z_model([0]).modulus == 2
    report = z_model([0, 360])
    # m must avoid all divisors of 360 and 720 that land in 2A-2A
    two_a_diffs = {a + b - c - d for a in (0, 360) for b in (0, 360)
                   for c in (0, 360) for d in (0, 360)}
    for m in range(2, report.modulus):
        assert any(d != 0 and d % m == 0 for d in two_a_diffs)
    assert not any(
        d != 0 and d % report.modulus == 0 for d in two_a_diffs
    )


def test_z_model_of_a_wide_span():
    # the host group Z/(4 * span + 5) is far above the enumeration cap
    assert z_model([0, 10**9]).modulus == 3
    assert z_model([0, 7, 10**9]).modulus == 9
    assert z_model([0, 1, 3, 10**12]).modulus == 15


def test_z_model_translates_integers_past_int64():
    """The modulus and the doubling do not change under translation, so a
    set far past int64 models as its translate to 0 does, with each residue
    taken of the original value."""
    base = 10**30
    far, near = z_model([base, base + 1, base + 3]), z_model([0, 1, 3])
    assert far.modulus == near.modulus == 7 and far.doubling == near.doubling
    assert far.assignment == tuple((v, v % 7) for v in (base, base + 1, base + 3))
    assert far.model.indices.tolist() == [1, 2, 4]
    assert z_model([99999999999999999999999]).modulus == 2


@pytest.mark.parametrize("values", [[0, 1, 5 * 10**18], [0, 2**62]], ids=["5e18", "2^62"])
def test_z_model_refuses_a_span_whose_host_leaves_int64(values):
    span = values[-1] - values[0]
    assert 4 * span + 5 >= 2**63
    with pytest.raises(DomainError, match=f"^the integer set spans {span};"):
        z_model(values)


def test_z_model_minimality_by_scan():
    values = [0, 1, 2, 10]
    report = z_model(values)
    arr = sorted({a + b for a in values for b in values})
    for m in range(2, report.modulus):
        assert len({v % m for v in arr}) < len(arr)
    assert len({v % report.modulus for v in arr}) == len(arr)


def test_model_campaign_every_map_verified():
    rng = Random(60)
    cases = 0
    while cases < 100:
        mode = cases % 3
        if mode == 0:
            n = 64 + rng.randrange(448)
            spec = GroupSpec((n,))
            a = gen_random_in_progression(
                spec, [0], [[1]], [max(3, n // 40)], 3 + rng.randrange(4), seed=cases
            )
            s = (2, 4, 8)[rng.randrange(3)]
            trace = minimize_model(a, s)
            for stage in trace.stages:
                assert is_freiman_iso(stage.map, s).ok
            assert is_freiman_iso(trace.composite, s).ok
        elif mode == 1:
            m = 3 + rng.randrange(4)
            spec = GroupSpec((2,) * m)
            a = gen_random(spec, 2 + rng.randrange(3), seed=1000 + cases)
            trace = f2_shrink(a)
            for stage in trace.stages:
                assert is_freiman_iso(stage.map, 2).ok
            k = doubling(a).k
            assert Fraction(trace.final_set.spec.cardinality) <= k**4 * a.size
        else:
            vals = sorted(rng.sample(range(200), 3 + rng.randrange(5)))
            report = z_model(vals)
            residues = [v % report.modulus for v in vals]
            assert len(set(residues)) == len(vals)
        cases += 1
    assert cases == 100


def _candidate_key(cand):
    if cand is None:
        return None
    return (cand.gamma, cand.q, cand.start, cand.length, cand.magnitude, cand.mass_window)


@pytest.mark.parametrize("delta", [Fraction(1, 21), Fraction(1, 32), Fraction(1, 64), Fraction(1, 4)])
def test_magnitude_floor_keeps_the_full_scan_hit(delta, monkeypatch):
    """On every set a model-on zoo chain meets, the scan above the magnitude
    floor returns what the scan over every character returns, and each hit
    of the full scan lies above the floor.  The chains are those of s = 8,
    whose default delta is 1/32, and for delta = 1/64 those of s = 16."""
    sets = []
    for a in zoo_sets():
        trace = minimize_model(a, 16 if delta == Fraction(1, 64) else 8)
        sets += [stage.set_before for stage in trace.stages] + [trace.final_set]
    pruned = [find_concentrating_character(b, delta) for b in sets]
    floor = models._magnitude_floor
    monkeypatch.setattr(models, "_magnitude_floor", lambda *args: -math.inf)
    full = [find_concentrating_character(b, delta) for b in sets]
    assert [_candidate_key(c) for c in pruned] == [_candidate_key(c) for c in full]
    assert any(c is None for c in full) and any(c is not None for c in full)
    for b, cand in zip(sets, full):
        if cand is not None:
            alpha_d = difference_set(b).size / b.spec.cardinality
            assert cand.magnitude >= floor(alpha_d, cand.kappa, delta)
