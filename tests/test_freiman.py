from random import Random

import numpy as np
import pytest

from cosetprog import (
    CosetProgression,
    DomainError,
    FreimanMap,
    GroupSet,
    GroupSpec,
    induced_difference_iso,
    is_freiman_hom,
    is_freiman_iso,
    iterated_sumset,
    materialize,
    s_fold_fibers,
    subgroup_closure,
    sum_difference_fibers,
    transport_progression,
)
from cosetprog import sumsets
from cosetprog.freiman import FiberWitness, HomReport, _fiber_pairs, _image_dp, compose

from conftest import oracle_freiman_hom


def _map_from_coords(spec_a, spec_b, assignment):
    domain = GroupSet.from_coords(spec_a, list(assignment))
    table = {
        spec_a.index_of(x): spec_b.index_of(y) for x, y in assignment.items()
    }
    return FreimanMap(domain, spec_b, table)


def test_identity_fibers_are_singletons():
    g = GroupSpec((12,))
    a = GroupSet.from_coords(g, [(0,), (2,), (5,)])
    phi = FreimanMap.identity(a)
    fibers = s_fold_fibers(a, 3, phi)
    assert all(len(v) == 1 for v in fibers.values())


def test_single_fold_fibers_always_singletons():
    g = GroupSpec((7,))
    a = GroupSet.from_coords(g, [(1,), (4,)])
    phi = FreimanMap(a, GroupSpec((9,)), {1: 0, 4: 5})
    assert all(len(v) == 1 for v in s_fold_fibers(a, 1, phi).values())


def test_fiber_violation_exposed():
    f22 = GroupSpec((2, 2))
    z4 = GroupSpec((4,))
    phi = _map_from_coords(
        f22, z4, {(0, 0): (0,), (0, 1): (2,), (1, 0): (1,)}
    )
    fibers = s_fold_fibers(phi.domain, 2, phi)
    assert any(len(v) > 1 for v in fibers.values())


def test_not_hom_example_f2_square():
    f22 = GroupSpec((2, 2))
    z4 = GroupSpec((4,))
    phi = _map_from_coords(
        f22, z4, {(0, 0): (0,), (0, 1): (2,), (1, 0): (1,)}
    )
    report = is_freiman_hom(phi, 2)
    assert not report.ok
    assert report.witness is not None
    # (1,0)+(1,0) = (0,0)+(0,0) but images 1+1 = 2 != 0
    assert report.witness.sum_index == f22.index_of((0, 0))
    assert set(report.witness.image_indices) >= {0, 2}


def test_translation_is_isomorphism():
    g = GroupSpec((10,))
    a = GroupSet.from_coords(g, [(0,), (3,), (4,)])
    for s in (2, 3, 4):
        phi = FreimanMap.translation(a, g.element((7,)))
        assert is_freiman_iso(phi, s).ok


def test_interval_embedding_iso():
    z8 = GroupSpec((8,))
    z5 = GroupSpec((5,))
    phi = _map_from_coords(z8, z5, {(0,): (0,), (1,): (1,), (2,): (2,)})
    assert is_freiman_iso(phi, 2).ok


def test_wraparound_breaks_iso():
    z4 = GroupSpec((4,))
    z8 = GroupSpec((8,))
    phi = _map_from_coords(
        z4, z8, {(0,): (0,), (1,): (1,), (2,): (2,), (3,): (3,)}
    )
    # 1+3 = 0+0 in Z/4 but 4 != 0 in Z/8
    assert not is_freiman_hom(phi, 2).ok


def test_hom_matches_bruteforce_oracle():
    rng = Random(4242)
    agreements = 0
    for _ in range(500):
        n = 4 + rng.randrange(9)
        m = 4 + rng.randrange(9)
        src = GroupSpec((n,))
        tgt = GroupSpec((m,))
        size = 2 + rng.randrange(min(7, n - 2))
        dom_idx = sorted(rng.sample(range(n), size))
        table = {i: rng.randrange(m) for i in dom_idx}
        domain = GroupSet(src, np.array(dom_idx, dtype=np.int64))
        phi = FreimanMap(domain, tgt, table)
        s = 2 + rng.randrange(2)
        assert is_freiman_hom(phi, s).ok == oracle_freiman_hom(phi, s)
        agreements += 1
    assert agreements == 500


def _keyed_dp(phi, pos, neg):
    """Reference: the DP over distinct (partial sum, partial image sum) keys.

    Every layer sorts its pairs; the first layer where one sum has two image
    sums gives the witness (that sum, smallest first, with its image sums).
    """
    spec, tspec = phi.domain.spec, phi.target
    t_card = tspec.cardinality
    xs = phi.domain.indices
    us = phi.apply_indices(xs)
    layers = [(xs, us)] * pos + [(spec.negate_indices(xs), tspec.negate_indices(us))] * neg
    key = np.unique(layers[0][0] * t_card + layers[0][1])
    for depth, (lx, lu) in enumerate(layers[1:], start=2):
        sums, images = key // t_card, key % t_card
        g2 = spec.add_pairwise(sums, lx).ravel()
        u2 = tspec.add_pairwise(images, lu).ravel()
        key = np.unique(g2 * t_card + u2)
        sums, images = key // t_card, key % t_card
        uniq, counts = np.unique(sums, return_counts=True)
        bad = np.nonzero(counts > 1)[0]
        if len(bad):
            s0 = int(uniq[bad[0]])
            return key, FiberWitness(depth, s0, tuple(int(u) for u in images[sums == s0]))
    return key, None


def _random_map(rng: Random) -> FreimanMap:
    """A small map of one of four kinds: random, affine, perturbed affine, integer lift."""
    shapes = [(16,), (27,), (30,), (2, 2, 2, 2), (2,) * 6, (4, 6), (2, 4, 8), (3, 9)]
    spec = GroupSpec(shapes[rng.randrange(len(shapes))])
    size = 1 + rng.randrange(min(8, spec.cardinality))
    dom = sorted(rng.sample(range(spec.cardinality), size))
    kind = rng.randrange(4)
    if kind == 0:
        tspec = GroupSpec(shapes[rng.randrange(len(shapes))])
        table = {i: rng.randrange(tspec.cardinality) for i in dom}
    elif kind == 3:
        # coordinates read as integers and reduced mod m: a hom only without wraparound
        tspec = GroupSpec((5 + rng.randrange(60),))
        table = {i: sum(spec.coords_of(i)) % tspec.cardinality for i in dom}
    else:
        tspec = spec
        c, t = rng.randrange(1, 8), rng.randrange(spec.cardinality)
        table = {i: spec.add_scalar(spec.scale_indices(np.array([i]), c), t)[0] for i in dom}
        if kind == 2:
            table[dom[rng.randrange(size)]] = rng.randrange(spec.cardinality)
    return FreimanMap(GroupSet(spec, np.array(dom, dtype=np.int64)), tspec, table)


@pytest.mark.parametrize("budget", [None, 5])
def test_both_dps_match_the_keyed_reference(budget, monkeypatch):
    if budget is not None:  # many row chunks per layer, so conflicts span chunks
        monkeypatch.setattr(sumsets, "_PAIR_BUDGET", budget)
    rng = Random(808)
    outcomes = {True: 0, False: 0}
    for _ in range(520):
        phi = _random_map(rng)
        s = (2, 3, 4, 8)[rng.randrange(4)]
        _, want = _keyed_dp(phi, s, 0)
        assert is_freiman_hom(phi, s) == HomReport(want is None, want)
        assert _fiber_pairs(phi, s, 0, stop_on_violation=True)[2] == want
        outcomes[want is None] += 1
        key, want = _keyed_dp(phi, 2, 2)
        img, got = _image_dp(phi, 2, 2)
        sums, images, got_keyed = _fiber_pairs(phi, 2, 2, stop_on_violation=True)
        assert got == got_keyed == want
        if want is None:
            t_card = phi.target.cardinality
            assert np.array_equal(sums * t_card + images, key)
            sums = np.flatnonzero(img >= 0)
            assert np.array_equal(sums * t_card + img[sums], key)
    assert min(outcomes.values()) >= 100


def test_empty_map_is_a_hom_with_no_fibers():
    spec = GroupSpec((8,))
    phi = FreimanMap(GroupSet.empty(spec), spec, {})
    assert is_freiman_hom(phi, 2) == HomReport(True, None)
    assert s_fold_fibers(phi.domain, 3, phi) == {}


def test_hom_is_hom_for_smaller_s():
    rng = Random(7)
    found = 0
    while found < 20:
        n = 6 + rng.randrange(12)
        src = GroupSpec((n,))
        tgt = GroupSpec((3 * n,))
        size = 2 + rng.randrange(4)
        dom_idx = sorted(rng.sample(range(n), size))
        table = {i: (2 * i) % (3 * n) for i in dom_idx}
        domain = GroupSet(src, np.array(dom_idx, dtype=np.int64))
        phi = FreimanMap(domain, tgt, table)
        if not is_freiman_hom(phi, 4).ok:
            continue
        assert is_freiman_hom(phi, 3).ok and is_freiman_hom(phi, 2).ok
        found += 1


def test_composition_of_homs():
    z20 = GroupSpec((20,))
    z30 = GroupSpec((30,))
    z50 = GroupSpec((50,))
    a = GroupSet.from_coords(z20, [(0,), (1,), (3,)])
    inner = _map_from_coords(z20, z30, {(0,): (0,), (1,): (1,), (3,): (3,)})
    outer = _map_from_coords(
        z30, z50, {(0,): (10,), (1,): (11,), (3,): (13,)}
    )
    assert is_freiman_hom(inner, 2).ok and is_freiman_hom(outer, 2).ok
    composed = compose(outer, inner)
    assert is_freiman_hom(composed, 2).ok
    assert composed(z20.element((3,))).coords == (13,)


def test_induced_difference_identity():
    g = GroupSpec((16,))
    a = GroupSet.from_coords(g, [(0,), (1,), (4,)])
    ind = induced_difference_iso(FreimanMap.identity(a))
    assert ind.domain == iterated_sumset(a, 2, 2)
    for i in ind.domain.indices:
        assert ind.table[int(i)] == int(i)


def test_induced_difference_translation_cancels():
    g = GroupSpec((16,))
    a = GroupSet.from_coords(g, [(0,), (1,), (4,)])
    ind = induced_difference_iso(FreimanMap.translation(a, g.element((5,))))
    for i in ind.domain.indices:
        assert ind.table[int(i)] == int(i)


def test_induced_difference_rejects_weak_map():
    z4 = GroupSpec((4,))
    z2 = GroupSpec((2,))
    bad = _map_from_coords(z4, z2, {(0,): (0,), (1,): (1,), (2,): (0,), (3,): (1,)})
    with pytest.raises(DomainError):
        induced_difference_iso(bad)
    z32 = GroupSpec((32,))
    z9 = GroupSpec((9,))
    good = _map_from_coords(z32, z9, {(0,): (0,), (1,): (1,)})
    ind = induced_difference_iso(good)
    assert ind.domain.size == 5
    assert is_freiman_iso(ind, 2).ok


def test_sum_difference_fibers_shape():
    g = GroupSpec((9,))
    a = GroupSet.from_coords(g, [(0,), (1,)])
    fibers = sum_difference_fibers(a, 2, 2, FreimanMap.identity(a))
    assert set(fibers) == {int(i) for i in iterated_sumset(a, 2, 2).indices}


def _random_proper_progression(rng: Random):
    specs = [GroupSpec((64,)), GroupSpec((32, 2)), GroupSpec((16, 8)), GroupSpec((128,))]
    while True:
        spec = specs[rng.randrange(len(specs))]
        h = subgroup_closure(
            g_spec := spec,
            [spec.element_at(rng.randrange(spec.cardinality))]
            if rng.randrange(2)
            else [],
        )
        dims = 1 + rng.randrange(2)
        gens = []
        bounds = []
        for _ in range(dims):
            gens.append(spec.element_at(1 + rng.randrange(spec.cardinality - 1)))
            l = 1 + rng.randrange(3)
            bounds.append((-l, l))
        base = spec.element_at(rng.randrange(spec.cardinality))
        cp = CosetProgression(spec, base, tuple(gens), tuple(bounds), h, False)
        realized = materialize(cp)
        if realized.size == cp.formal_size:
            return CosetProgression(
                spec, base, tuple(gens), tuple(bounds), h, True
            )


def test_transport_identity_and_translation():
    g = GroupSpec((64,))
    h = subgroup_closure(g, [])
    cp = CosetProgression(g, g.element((5,)), (g.element((1,)),), ((-3, 3),), h, True)
    domain = GroupSet.full(g)
    ident = FreimanMap.identity(domain)
    out = transport_progression(ident, cp)
    assert materialize(out) == materialize(cp)
    shift = FreimanMap.translation(domain, g.element((10,)))
    moved = transport_progression(shift, cp)
    assert materialize(moved) == materialize(cp).translate(g.element((10,)))
    assert moved.dimension == cp.dimension


def test_transport_rejects_a_map_that_does_not_carry_p_onto_a_progression():
    # the output checks are transport's only guard: psi is not re-checked
    g = GroupSpec((16,))
    h = subgroup_closure(g, [])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((-2, 2),), h, True)
    source = materialize(cp)  # 14, 15, 0, 1, 2
    collapse = FreimanMap(source, g, {int(x): 0 for x in source.indices})
    with pytest.raises(DomainError, match="^transport did not preserve properness and size$"):
        transport_progression(collapse, cp)
    # one to one, but 0, 1, 2, 3, 5 is no progression of step psi(15) - psi(14)
    scramble = FreimanMap(source, g, {14: 0, 15: 1, 0: 2, 1: 3, 2: 5})
    with pytest.raises(DomainError, match="^transported progression does not equal the image set$"):
        transport_progression(scramble, cp)


def test_transport_names_a_coset_point_outside_the_domain():
    # P + H = {1, 5} lies in the domain and so does the base 0, but the
    # coset base + H = {0, 4} does not
    g = GroupSpec((8,))
    h = subgroup_closure(g, [g.element((4,))])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((1, 1),), h, True)
    psi = FreimanMap(GroupSet(g, np.array([0, 1, 5])), g, {0: 0, 1: 1, 5: 5})
    with pytest.raises(DomainError, match=r"^\(4\) is outside the map's domain$"):
        transport_progression(psi, cp)


def test_transport_campaign_preserves_dimension_and_size():
    rng = Random(31337)
    done = 0
    while done < 100:
        cp = _random_proper_progression(rng)
        spec = cp.spec
        unit = 1 + rng.randrange(spec.orders[0] - 1)
        import math

        if math.gcd(unit, spec.orders[0]) != 1:
            continue
        coords_map = {}
        for idx in range(spec.cardinality):
            c = spec.coords_of(idx)
            image = (c[0] * unit % spec.orders[0],) + c[1:]
            coords_map[idx] = spec.index_of(image)
        psi = FreimanMap(GroupSet.full(spec), spec, coords_map)
        out = transport_progression(psi, cp)
        # the subgroup, generators included, is the one a point-by-point
        # image of base + H gives
        moved = {(psi(cp.base + h) - psi(cp.base)).index for h in cp.subgroup.elements()}
        reference = subgroup_closure(spec, [spec.element_at(i) for i in sorted(moved)])
        assert out.subgroup == reference
        assert out.subgroup.generators == reference.generators
        assert out.dimension == cp.dimension
        assert materialize(out).size == materialize(cp).size
        assert out.proper
        done += 1
