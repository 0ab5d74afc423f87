import re
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
    subgroup_closure,
    transport_progression,
)
from cosetprog import sumsets
from cosetprog.freiman import FiberWitness, HomReport, _induced_map, compose
from cosetprog.groups import ENUMERATION_CAP

from conftest import map_from_table, oracle_freiman_hom


def _map_from_coords(spec_a, spec_b, assignment):
    table = {
        spec_a.index_of(x): spec_b.index_of(y) for x, y in assignment.items()
    }
    return map_from_table(spec_a, spec_b, table)


def test_identity_fibers_are_singletons():
    g = GroupSpec((12,))
    a = GroupSet.from_coords(g, [(0,), (2,), (5,)])
    sums, images, witness, inverse = _induced_map(FreimanMap.identity(a), 3, 0)
    assert witness is None and inverse is None
    assert np.array_equal(sums, iterated_sumset(a, 3, 0).indices)
    assert np.array_equal(images, sums)


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
        phi = map_from_table(src, tgt, table)
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
        scaled = [spec.index_of([c * x for x in spec.coords_of(i)]) for i in dom]
        table = dict(zip(dom, spec.add_scalar(np.array(scaled), t).tolist()))
        if kind == 2:
            table[dom[rng.randrange(size)]] = rng.randrange(spec.cardinality)
    return map_from_table(spec, tspec, table)


@pytest.mark.parametrize("budget", [None, 5])
def test_both_dps_match_the_keyed_reference(budget, monkeypatch):
    """Both ways of keeping a layer, the array over G and the sorted
    columns, give the reference's witness and (sums, images)."""
    if budget is not None:  # many row chunks per layer, so conflicts span chunks
        monkeypatch.setattr(sumsets, "_PAIR_BUDGET", budget)
    rng = Random(808)
    outcomes = {True: 0, False: 0}
    for _ in range(520):
        phi = _random_map(rng)
        t_card = phi.target.cardinality
        s = (2, 3, 4, 8)[rng.randrange(4)]
        for pos, neg in ((s, 0), (2, 2)):
            key, want = _keyed_dp(phi, pos, neg)
            for dense in (True, False):
                monkeypatch.setattr(sumsets, "_MASK_RATIO", ENUMERATION_CAP if dense else 0)
                assert sumsets.mask_pays(phi.domain.spec, 1) == dense
                sums, images, got, _ = _induced_map(phi, pos, neg)
                assert got == want
                if want is None:
                    assert np.array_equal(sums, key // t_card)
                    assert np.array_equal(images, key % t_card)
                if neg == 0:
                    assert is_freiman_hom(phi, s) == HomReport(want is None, want)
            outcomes[want is None] += 1
    assert min(outcomes.values()) >= 200


def _reduction_map(rng: Random) -> FreimanMap:
    """An injective map whose inverse is often no homomorphism: points of
    [0, n/8) in Z/n, which add without wrapping in 8-fold sums, sent to their
    residues mod a small m that keeps them apart."""
    n = 64 * (1 + rng.randrange(4))
    dom = rng.sample(range(n // 8), 2 + rng.randrange(5))
    m = next(m for m in range(3 + rng.randrange(12), n) if len({x % m for x in dom}) == len(dom))
    return map_from_table(GroupSpec((n,)), GroupSpec((m,)), {x: x % m for x in dom})


def _two_run_iso(phi: FreimanMap, s: int) -> HomReport:
    """Reference: the forward check, then injectivity, then the inverse's check."""
    forward = is_freiman_hom(phi, s)
    if not forward.ok:
        return forward
    table = dict(zip(phi.domain.indices.tolist(), phi.images.tolist()))
    if len(set(table.values())) < len(table):
        return HomReport(False, None)
    inverse = map_from_table(phi.target, phi.domain.spec, {u: x for x, u in table.items()})
    return is_freiman_hom(inverse, s)


def test_iso_is_the_two_run_check(monkeypatch):
    """One run read both ways gives the report of the forward check, the
    injectivity test and the inverse's check run one after the other, in
    both ways of keeping a layer, the inverse's witness included."""
    rng = Random(2718)
    kinds = {"ok": 0, "forward": 0, "collision": 0, "inverse": 0}
    for i in range(600):
        phi = _random_map(rng) if i % 2 else _reduction_map(rng)
        s = (2, 3, 4, 8)[rng.randrange(4)]
        want = _two_run_iso(phi, s)
        for dense in (True, False):
            monkeypatch.setattr(sumsets, "_MASK_RATIO", ENUMERATION_CAP if dense else 0)
            assert is_freiman_iso(phi, s) == want
        forward = is_freiman_hom(phi, s).ok
        kinds["ok" if want.ok else "forward" if not forward else
              "collision" if want.witness is None else "inverse"] += 1
    assert min(kinds.values()) >= 30, kinds


def test_empty_map_is_a_hom_with_no_fibers():
    spec = GroupSpec((8,))
    phi = map_from_table(spec, spec, {})
    assert is_freiman_hom(phi, 2) == HomReport(True, None)
    for pos, neg in ((3, 0), (2, 2)):
        sums, images, witness, inverse = _induced_map(phi, pos, neg)
        assert len(sums) == len(images) == 0 and witness is None and inverse is None


def test_reduction_from_a_host_past_2_62_is_checked_exactly():
    # {0, 1, 2^60} in Z/(4 * 2^60 + 5): a sum times 24 leaves int64
    host = GroupSpec((4 * 2**60 + 5,))
    a = GroupSet.from_sorted(host, np.array([0, 1, 2**60], dtype=np.int64))
    # mod 24 the images 0, 1, 16 keep 2A distinct: a 2-isomorphism
    assert is_freiman_iso(FreimanMap(a, GroupSpec((24,)), a.indices % 24), 2).ok
    # mod 17 they are 0, 1, 16, and 1 + 16 = 0 + 0 in Z/17: the inverse fails
    report = is_freiman_iso(FreimanMap(a, GroupSpec((17,)), a.indices % 17), 2)
    assert not report.ok
    assert report.witness == FiberWitness(2, 0, (0, 2**60 + 1))


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
        phi = map_from_table(src, tgt, table)
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


def _random_table(rng: Random, spec: GroupSpec, target: GroupSpec, injective: bool):
    size = rng.randrange(min(12, spec.cardinality) + 1)
    dom = rng.sample(range(spec.cardinality), size)
    if injective:
        images = rng.sample(range(target.cardinality), size)
    else:
        images = [rng.randrange(target.cardinality) for _ in dom]
    return dict(zip(dom, images))


def test_map_operations_agree_with_a_dict_reference():
    shapes = [(16,), (27,), (2, 2, 2, 2), (4, 6), (3, 9)]
    rng = Random(1909)
    for _ in range(300):
        spec, target, third = (GroupSpec(shapes[rng.randrange(len(shapes))]) for _ in range(3))
        injective = rng.randrange(2) == 0
        table = _random_table(rng, spec, target, injective)
        phi = map_from_table(spec, target, table)
        # apply_indices and __call__, in any order, and the first point outside
        points = list(table)
        rng.shuffle(points)
        got = phi.apply_indices(np.array(points, dtype=np.int64)).tolist()
        assert got == [table[x] for x in points]
        assert all(phi(spec.element_at(x)).index == table[x] for x in points)
        outside = [x for x in range(spec.cardinality) if x not in table]
        if outside:
            x = outside[rng.randrange(len(outside))]
            probe = np.array(points[: rng.randrange(len(points) + 1)] + [x], dtype=np.int64)
            name = re.escape(repr(spec.element_at(x)))
            with pytest.raises(DomainError, match=f"^{name} is outside the map's domain$"):
                phi.apply_indices(probe)
        # compose with a map on a superset of phi's image
        outer_table = _random_table(rng, target, third, False)
        outer_table.update({y: rng.randrange(third.cardinality) for y in table.values()})
        outer = map_from_table(target, third, outer_table)
        both = compose(outer, phi)
        assert dict(zip(both.domain.indices.tolist(), both.images.tolist())) == {
            x: outer_table[y] for x, y in table.items()
        }
        assert phi.image().indices.tolist() == sorted(set(table.values()))


def test_induced_difference_identity():
    g = GroupSpec((16,))
    a = GroupSet.from_coords(g, [(0,), (1,), (4,)])
    ind = induced_difference_iso(FreimanMap.identity(a))
    assert ind.domain == iterated_sumset(a, 2, 2)
    assert np.array_equal(ind.images, ind.domain.indices)


def test_induced_difference_translation_cancels():
    g = GroupSpec((16,))
    a = GroupSet.from_coords(g, [(0,), (1,), (4,)])
    ind = induced_difference_iso(FreimanMap.translation(a, g.element((5,))))
    assert np.array_equal(ind.images, ind.domain.indices)


def test_induced_difference_rejects_weak_map():
    # x mod 2 is a group homomorphism, so it induces a map on 2A - 2A; it is
    # no 8-isomorphism, which is what every caller checks first
    z4 = GroupSpec((4,))
    z2 = GroupSpec((2,))
    bad = _map_from_coords(z4, z2, {(0,): (0,), (1,): (1,), (2,): (0,), (3,): (1,)})
    assert not is_freiman_iso(bad, 8).ok
    z32 = GroupSpec((32,))
    z9 = GroupSpec((9,))
    good = _map_from_coords(z32, z9, {(0,): (0,), (1,): (1,)})
    ind = induced_difference_iso(good)
    assert ind.domain.size == 5
    assert is_freiman_iso(ind, 2).ok


def test_sum_difference_fibers_shape():
    g = GroupSpec((9,))
    a = GroupSet.from_coords(g, [(0,), (1,)])
    sums, images, witness, _ = _induced_map(FreimanMap.identity(a), 2, 2)
    assert witness is None
    assert np.array_equal(sums, iterated_sumset(a, 2, 2).indices)
    assert np.array_equal(images, sums)


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
    collapse = map_from_table(g, g, {int(x): 0 for x in source.indices})
    with pytest.raises(DomainError, match="^transport did not preserve properness and size$"):
        transport_progression(collapse, cp)
    # one to one, but 0, 1, 2, 3, 5 is no progression of step psi(15) - psi(14)
    scramble = map_from_table(g, g, {14: 0, 15: 1, 0: 2, 1: 3, 2: 5})
    with pytest.raises(DomainError, match="^transported progression does not equal the image set$"):
        transport_progression(scramble, cp)


def test_transport_names_a_coset_point_outside_the_domain():
    # P + H = {1, 5} lies in the domain and so does the base 0, but the
    # coset base + H = {0, 4} does not
    g = GroupSpec((8,))
    h = subgroup_closure(g, [g.element((4,))])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((1, 1),), h, True)
    psi = map_from_table(g, g, {0: 0, 1: 1, 5: 5})
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
        psi = map_from_table(spec, spec, coords_map)
        out = transport_progression(psi, cp)
        # the subgroup is the point-by-point image of base + H less psi(base),
        # and its generators are the images of H's generators
        moved = {(psi(cp.base + h) - psi(cp.base)).index for h in cp.subgroup.elements()}
        assert out.subgroup.indices.tolist() == sorted(moved)
        assert out.subgroup.generators == tuple(
            psi(cp.base + h) - psi(cp.base) for h in cp.subgroup.generators
        )
        assert out.dimension == cp.dimension
        assert materialize(out).size == materialize(cp).size
        assert out.proper
        done += 1
