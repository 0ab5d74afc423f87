import itertools
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from cosetprog import (
    BohrSpec,
    CosetProgression,
    DomainError,
    GroupSet,
    GroupSpec,
    ResourceLimitError,
    bohr_set,
    materialize,
    progression_from_bohr,
    subgroup_closure,
    successive_minima,
    to_one_sided,
)
from cosetprog import bohr
from cosetprog.bohr import _integer_nullspace, minima_frame

from conftest import SMALL_SPECS, character_tuples, oracle_bohr_set, seeded_minima_cases


def test_bohr_order_two_kernel():
    g = GroupSpec((8,))
    b = bohr_set(BohrSpec(g, (g.character((4,)),), Fraction(1, 3)))
    assert sorted(e.coords[0] for e in b.elements()) == [0, 2, 4, 6]


def test_bohr_z101_window():
    g = GroupSpec((101,))
    b = bohr_set(BohrSpec(g, (g.character((1,)),), Fraction(1, 5)))
    expected = sorted(list(range(21)) + list(range(81, 101)))
    assert sorted(e.coords[0] for e in b.elements()) == expected


def test_bohr_dimension_zero_whole_group():
    g = GroupSpec((6, 2))
    assert bohr_set(BohrSpec(g, (), Fraction(1, 6))) == GroupSet.full(g)


def test_bohr_symmetric_contains_zero():
    g = GroupSpec((24,))
    b = bohr_set(BohrSpec(g, (g.character((5,)),), Fraction(1, 7)))
    assert g.zero() in b
    assert b.negate() == b


def test_bohr_triangle_inequality():
    g = GroupSpec((36,))
    chars = (g.character((1,)), g.character((10,)))
    b1 = bohr_set(BohrSpec(g, chars, Fraction(1, 9)))
    b2 = bohr_set(BohrSpec(g, chars, Fraction(1, 12)))
    both = bohr_set(BohrSpec(g, chars, Fraction(1, 9) + Fraction(1, 12)))
    from cosetprog import sumset

    assert sumset(b1, b2).is_subset(both)


def test_minima_one_dimensional():
    g = GroupSpec((5,))
    m = successive_minima([g.character((1,))])
    assert m.lambdas == (Fraction(1, 5),)
    assert m.vectors == ((Fraction(1, 5),),)
    assert m.preimages[0].coords == (1,)
    assert m.det == Fraction(1, 5)


def test_minima_z8_order_four():
    g = GroupSpec((8,))
    m = successive_minima([g.character((2,))])
    assert m.subgroup.order == 2
    assert m.det == Fraction(1, 4)
    assert m.lambdas == (Fraction(1, 4),)
    assert m.preimages[0].coords == (1,)


def test_minima_strips_trivial():
    g = GroupSpec((8,))
    m = successive_minima([g.trivial_character(), g.character((2,))])
    assert len(m.stripped) == 1 and m.stripped[0].is_trivial()
    assert m.dimension == 1
    with pytest.raises(DomainError):
        successive_minima([g.trivial_character()])


def test_minima_campaign_minkowski_and_independence():
    for spec, chars, _ in seeded_minima_cases(100, seed=5150):
        m = successive_minima(list(chars))
        assert m.minkowski_holds()
        assert m.first_dependent() is None
        assert all(l1 <= l2 for l1, l2 in zip(m.lambdas, m.lambdas[1:]))
        for lam, vec in zip(m.lambdas, m.vectors):
            assert max(abs(v) for v in vec) == lam


def _echelon_insert(echelon, vec):
    """Add ``vec`` to a list of (pivot column, row scaled to 1 there) in
    row echelon form; False, and no change, when it is dependent."""
    rest = [Fraction(v) for v in vec]
    for col, row in echelon:
        rest = [a - rest[col] * b for a, b in zip(rest, row)]
    lead = next((c for c, v in enumerate(rest) if v), None)
    if lead is not None:
        echelon.append((lead, [v / rest[lead] for v in rest]))
    return lead is not None


def test_integer_nullspace_is_an_orthogonal_basis():
    rng = Random(31)
    for _ in range(300):
        width = 1 + rng.randrange(6)
        rows = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(width)]
                for _ in range(rng.randrange(width + 1))]
        if len(rows) >= 2:
            rows.append([a - 3 * b for a, b in zip(rows[0], rows[1])])
        basis = _integer_nullspace(rows, width)
        assert all(sum(b * v for b, v in zip(vec, row)) == 0 for vec in basis for row in rows)
        row_echelon, basis_echelon = [], []
        rank = sum(_echelon_insert(row_echelon, row) for row in rows)
        assert len(basis) == width - rank
        assert all(_echelon_insert(basis_echelon, vec) for vec in basis)


def _full_table_minima(chars):
    """The whole candidate table sorted by (norm, preimage, shift pattern),
    scanned greedily: (lambdas, vectors, preimage indices, |H|)."""
    frame = minima_frame(chars)
    spec, m_den, d = frame.spec, frame.denominator, frame.dimension
    coords = spec.decode(np.arange(spec.cardinality))
    t = np.stack([g.arg_numerators(coords) * (m_den // g.order()) for g in frame.chars], axis=1)
    table = np.where(2 * t > m_den, t - m_den, t)
    rows, first = np.unique(table, axis=0, return_index=True)
    nonzero = ~np.all(rows == 0, axis=1)
    rows, first = rows[nonzero], first[nonzero]
    alt = np.where(rows > 0, rows - m_den, rows + m_den)
    cands = [(m_den, 0, (1 << d) + j, tuple(m_den * (i == j) for i in range(d)))
             for j in range(d)]
    for bits in range(1 << d):
        sel = np.array([(bits >> j) & 1 for j in range(d)], dtype=bool)
        for row, a, pre in zip(rows, alt, first):
            if not np.any(sel & (row == 0)):
                vec = tuple(int(v) for v in np.where(sel, a, row))
                cands.append((max(map(abs, vec)), int(pre), bits, vec))
    cands.sort()
    picks, echelon = [], []
    for norm, pre, _, vec in cands:
        if len(picks) < d and _echelon_insert(echelon, vec):
            picks.append((Fraction(norm, m_den), pre, vec))
    return (
        tuple(p[0] for p in picks),
        tuple(tuple(Fraction(v, m_den) for v in p[2]) for p in picks),
        tuple(p[1] for p in picks),
        frame.subgroup.order,
    )


def test_lazy_minima_match_the_full_table(monkeypatch):
    shapes = [s.orders for s in SMALL_SPECS] + [(2, 2, 2), (2,) * 7, (2, 2, 6)]
    built = []
    shifted_lifts = bohr._shifted_lifts
    monkeypatch.setattr(bohr, "_shifted_lifts",
                        lambda *a: built.append(1) or shifted_lifts(*a))
    rng = Random(4242)
    fallback = fast = 0
    for case in range(320):
        spec = GroupSpec(shapes[case % len(shapes)])
        d = 1 + rng.randrange(min(4, spec.cardinality - 1))
        chars = [spec.character_at(i)
                 for i in rng.sample(range(1, spec.cardinality), d)]
        built.clear()
        m = successive_minima(chars)
        ref = _full_table_minima(chars)
        got = (m.lambdas, m.vectors, tuple(p.index for p in m.preimages), m.subgroup.order)
        assert got == ref, (spec, chars)
        # the shifted table is built exactly when rank d needs norm >= 1/2
        assert bool(built) == (m.lambdas[-1] >= Fraction(1, 2)), (spec, chars)
        fallback += bool(built)
        fast += not built
    assert fallback >= 50 and fast >= 50, (fallback, fast)


def test_minima_budget_depends_on_index_and_dimension(monkeypatch):
    g = GroupSpec((64,))
    chars = [g.character((c,)) for c in (1, 3, 5)]
    assert successive_minima(chars).dimension == 3
    monkeypatch.setattr(bohr, "_CANDIDATE_BUDGET", (64 - 1) << 2)
    with pytest.raises(ResourceLimitError, match="too large in dimension 3"):
        successive_minima(chars)
    assert successive_minima(chars[:2]).dimension == 2


def test_extraction_z101_exact_window():
    g = GroupSpec((101,))
    ext = progression_from_bohr(BohrSpec(g, (g.character((1,)),), Fraction(1, 5)))
    cp = ext.progression
    assert cp.bounds == ((-20, 20),)
    got = sorted(e.coords[0] for e in materialize(cp).elements())
    assert got == sorted(list(range(21)) + list(range(81, 101)))
    assert materialize(cp).size == 41
    assert Fraction(41) >= Fraction(1, 5) * 101


def test_extraction_z8_kernel_case():
    g = GroupSpec((8,))
    ext = progression_from_bohr(BohrSpec(g, (g.character((2,)),), Fraction(1, 5)))
    cp = ext.progression
    assert cp.bounds == ()  # floor((1/5)/(1/4)) = 0: no active generator
    assert sorted(e.coords[0] for e in materialize(cp).elements()) == [0, 4]
    assert cp.proper


def test_extraction_two_torsion():
    g = GroupSpec((2, 2, 2))
    chars = (g.character((1, 0, 0)), g.character((0, 1, 1)))
    ext = progression_from_bohr(BohrSpec(g, chars, Fraction(1, 6)))
    cp = ext.progression
    assert cp.dimension == 0
    assert materialize(cp) == GroupSet.from_subgroup(cp.subgroup)


def test_extraction_rejects_large_radius():
    g = GroupSpec((8,))
    with pytest.raises(DomainError):
        progression_from_bohr(BohrSpec(g, (g.character((1,)),), Fraction(1, 3)))


def test_extraction_campaign_theorem_backed():
    count = 0
    for spec, chars, rho in seeded_minima_cases(100, seed=777):
        ext = progression_from_bohr(BohrSpec(spec, chars, rho))
        cp = ext.progression
        realized = materialize(cp)
        assert cp.proper
        bset = bohr_set(BohrSpec(spec, ext.minima.chars, rho))
        assert realized.is_subset(bset)
        d = ext.minima.dimension
        assert realized.size >= (rho / d) ** d * spec.cardinality
        count += 1
    assert count == 100


def test_materialize_proper_example():
    g = GroupSpec((8,))
    h = subgroup_closure(g, [])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((0, 7),), h, True)
    assert materialize(cp).size == cp.formal_size == 8


def test_materialize_improper_pigeonhole():
    g = GroupSpec((8,))
    h = subgroup_closure(g, [])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((0, 8),), h, False)
    assert materialize(cp).size < cp.formal_size


def test_one_sided_conversion_preserves_set():
    g = GroupSpec((32,))
    h = subgroup_closure(g, [g.element((16,))])
    cp = CosetProgression(g, g.element((3,)), (g.element((1,)),), ((-2, 2),), h, True)
    converted = to_one_sided(cp)
    assert converted.bounds == ((0, 4),)
    assert materialize(converted) == materialize(cp)


def _enumerate_progression(cp):
    """Every base + h + sum l_j g_j, one coefficient tuple at a time."""
    orders = cp.spec.orders
    out = set()
    for ls in itertools.product(*(range(lo, hi + 1) for lo, hi in cp.bounds)):
        for h in cp.subgroup.indices:
            acc = [b + c for b, c in zip(cp.base.coords, cp.spec.coords_of(int(h)))]
            for l, g in zip(ls, cp.generators):
                acc = [x + l * c for x, c in zip(acc, g.coords)]
            out.add(tuple(x % n for x, n in zip(acc, orders)))
    return out


def test_materialize_matches_enumeration():
    rng = Random(17)
    cases = []
    for spec in SMALL_SPECS[:10]:
        for _ in range(4):
            gens = tuple(spec.element_at(rng.randrange(spec.cardinality))
                         for _ in range(rng.randrange(4)))
            bounds = []
            for _ in gens:
                lo = rng.randrange(-6, 4)
                bounds.append((lo, lo + rng.randrange(6)))
            h = subgroup_closure(spec, [spec.element_at(rng.randrange(spec.cardinality))]
                                 if rng.randrange(3) == 0 else [])
            base = spec.element_at(rng.randrange(spec.cardinality))
            cases.append(CosetProgression(spec, base, gens, tuple(bounds), h, False))
    z16 = GroupSpec((16,))
    trivial = subgroup_closure(z16, [])
    # fills Z/16 with its first generator, before the second is added
    cases.append(CosetProgression(z16, z16.element((5,)), (z16.element((3,)), z16.element((1,))),
                                  ((-20, 3), (0, 2)), trivial, False))
    # a coefficient far outside int64 reduces modulo the generator's order
    cases.append(CosetProgression(z16, z16.zero(), (z16.element((2,)),),
                                  ((-10**20, 3 - 10**20),), trivial, False))
    for cp in cases:
        got = materialize(cp)
        assert np.all(np.diff(got.indices) > 0)
        assert {tuple(int(c) for c in r) for r in got.coords()} == _enumerate_progression(cp)
    assert materialize(cases[-2]) == GroupSet.full(z16)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_bohr_set_matches_the_oracle(spec):
    """bohr_set filters G one character at a time; its set is the one the
    definition gives point by point, whatever the order of the characters."""
    for label, chars in character_tuples(spec, seed=spec.cardinality):
        for rho in (Fraction(1, 12), Fraction(1, 5), Fraction(1, 2)):
            got = bohr_set(BohrSpec(spec, chars, rho)).indices.tolist()
            assert got == oracle_bohr_set(spec, chars, rho), (label, rho)
