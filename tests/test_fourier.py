import itertools
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from cosetprog import (
    BohrSpec,
    Cube,
    DomainError,
    GroupSet,
    GroupSpec,
    RieszFunction,
    StructureError,
    bogolyubov_bohr,
    bohr_set,
    chang_bound_check,
    convolution_power_at,
    dissociation_witness,
    doubling,
    indicator_transform,
    is_dissociated,
    iterated_sumset,
    max_dissociated,
    riesz_moment_check,
    spec_threshold,
)
from cosetprog.fourier import Spectrum, _magnitude_order, inversion_values

from conftest import (
    SMALL_SPECS,
    oracle_convolution_power,
    oracle_dft,
    oracle_inversion,
)

EPS = 1e-9


def _interval(spec, length):
    return GroupSet.from_coords(spec, [(i,) for i in range(length)])


def test_transform_subgroup_annihilator():
    g = GroupSpec((8,))
    sub = GroupSet.from_coords(g, [(0,), (4,)])
    spectrum = indicator_transform(sub)
    for c in range(8):
        expected = 0.25 if (4 * c) % 8 == 0 else 0.0
        assert abs(spectrum.values[c] - expected) < EPS


def test_transform_singleton_flat():
    g = GroupSpec((12,))
    spectrum = indicator_transform(GroupSet.from_coords(g, [(0,)]))
    assert np.allclose(spectrum.values, 1 / 12)


def test_transform_interval_z16_closed_form():
    g = GroupSpec((16,))
    spectrum = indicator_transform(_interval(g, 4))
    # geometric series: |sum_{x<4} e^(2 pi i c x/16)| = |sin(pi c/4)/sin(pi c/16)|
    for c in (1, 3):
        closed = abs(math.sin(math.pi * c / 4) / math.sin(math.pi * c / 16)) / 16
        assert abs(abs(spectrum.values[c]) - closed) < EPS
    assert abs(abs(spectrum.values[1]) - 0.2266) < 5e-4
    assert abs(abs(spectrum.values[3]) - 0.0795) < 5e-4


def test_transform_matches_direct_oracle():
    g = GroupSpec((6, 4))
    a = GroupSet.from_coords(g, [(0, 0), (1, 2), (5, 3), (2, 2)])
    assert np.allclose(indicator_transform(a).values, oracle_dft(a), atol=EPS)


def test_identities_on_campaign(fourier_campaign):
    for a in fourier_campaign:
        spectrum = indicator_transform(a)
        alpha = float(spectrum.density)
        # Plancherel
        assert abs(np.sum(spectrum.magnitudes**2) - alpha) <= EPS * max(alpha, 1e-12)
        # inversion reconstructs the indicator
        values = inversion_values(spectrum)
        mask = np.zeros(a.spec.cardinality)
        mask[a.indices] = 1.0
        assert np.max(np.abs(values - mask)) <= 1e-8
        # conjugate symmetry
        neg = a.spec.negate_indices(np.arange(a.spec.cardinality, dtype=np.int64))
        assert np.max(np.abs(spectrum.values[neg] - np.conj(spectrum.values))) <= EPS
        spectrum.validate()


def test_transform_within_guard_band_of_oracle(fourier_campaign):
    for a in fourier_campaign:
        alpha = a.size / a.spec.cardinality
        diff = np.abs(indicator_transform(a).values - oracle_dft(a))
        assert diff.max() <= 1e-9 * alpha, (a.spec, a.size)


def test_transform_interval_z2_18_dirichlet_kernel():
    n, length = 1 << 18, 1000
    g = GroupSpec((n,))
    spectrum = indicator_transform(_interval(g, length))
    c = np.arange(1, n)
    # |sum_{x<l} e(cx/n)| = |sin(pi c l/n) / sin(pi c/n)|, the numerator reduced mod n
    kernel = np.abs(np.sin(np.pi * (c * length % n) / n) / np.sin(np.pi * c / n)) / n
    assert abs(spectrum.values[0] - length / n) <= 1e-12
    assert np.max(np.abs(spectrum.magnitudes[1:] - kernel)) <= 1e-12


MIXED_SPECS = [GroupSpec((6, 10)), GroupSpec((3, 4, 5)), GroupSpec((2, 6, 9))]


def test_inversion_values_matches_oracle():
    rng = np.random.default_rng(5)
    for spec in MIXED_SPECS:
        n = spec.cardinality
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        values = inversion_values(Spectrum(spec, 1, coeffs))
        assert np.max(np.abs(values - oracle_inversion(spec, coeffs))) <= EPS


def test_convolution_power_matches_oracle():
    rng = Random(8)
    for spec in MIXED_SPECS:
        a = GroupSet.from_coords(
            spec, [spec.coords_of(rng.randrange(spec.cardinality)) for _ in range(7)]
        )
        for m in (2, 3):
            for xi in rng.sample(range(spec.cardinality), 6):
                x = spec.element_at(xi)
                expected = oracle_convolution_power(a, m, x)
                assert abs(convolution_power_at(a, m, x) - expected) < EPS


def test_convolution_full_group():
    g = GroupSpec((6,))
    a = GroupSet.full(g)
    for x in (0, 3):
        assert abs(convolution_power_at(a, 3, g.element((x,))) - 1.0) < EPS


def test_convolution_outside_support_vanishes():
    g = GroupSpec((16,))
    a = _interval(g, 2)  # 2A = {0,1,2}
    assert abs(convolution_power_at(a, 2, g.element((9,)))) < EPS


def test_convolution_both_routes_agree():
    g = GroupSpec((4,))
    a = _interval(g, 2)
    x = g.element((1,))
    direct = oracle_convolution_power(a, 2, x)
    spectral = convolution_power_at(a, 2, x)
    assert abs(direct - spectral) < EPS
    assert abs(spectral - 0.5) < EPS  # 2 pairs out of |G| summing to 1, over E_y


def test_spec_threshold_index_two_subgroup():
    g = GroupSpec((4,))
    sub = GroupSet.from_coords(g, [(0,), (2,)])
    tset = spec_threshold(indicator_transform(sub), 1.0)
    assert [c.coords[0] for c in tset.chars] == [0, 2]
    assert tset.indices[0] == 0


def test_spec_threshold_rho_one_generic():
    g = GroupSpec((16,))
    a = GroupSet.from_coords(g, [(0,), (1,), (5,), (11,)])
    tset = spec_threshold(indicator_transform(a), 1.0)
    assert tset.chars[0].is_trivial()


def test_spec_threshold_z16_worked_instance():
    g = GroupSpec((16,))
    a = _interval(g, 4)
    k = doubling(a).k
    assert k == Fraction(7, 4)
    tset = spec_threshold(indicator_transform(a), 1 / (2 * math.sqrt(float(k))))
    assert sorted(c.coords[0] for c in tset.chars) == [0, 1, 2, 14, 15]


def test_dissociated_examples():
    z5 = GroupSpec((5,))
    assert is_dissociated([z5.character((1,))])
    z3 = GroupSpec((3,))
    pair = [z3.character((1,)), z3.character((2,))]
    assert not is_dissociated(pair)
    assert dissociation_witness(pair) == (1, 1)
    z4 = GroupSpec((4,))
    assert is_dissociated([z4.character((1,)), z4.character((2,))])


def test_dissociated_trivial_character_never():
    z4 = GroupSpec((4,))
    assert not is_dissociated([z4.trivial_character()])


def _brute_cube(spec, chars):
    """Every eps in {-1,0,1}^d mapped to the coordinates of sum(eps_j phi_j)."""
    return {
        eps: tuple(
            sum(e * c.coords[i] for e, c in zip(eps, chars)) % n
            for i, n in enumerate(spec.orders)
        )
        for eps in itertools.product((-1, 0, 1), repeat=len(chars))
    }


def test_dissociativity_matches_brute_force():
    rng = Random(7)
    for spec in SMALL_SPECS:
        zero = (0,) * spec.rank
        for _ in range(40):
            d = rng.randrange(6)
            # small indices make repeats, inverse pairs and the trivial character likely
            pool = min(spec.cardinality, 12)
            chars = [spec.character_at(rng.randrange(pool)) for _ in range(d)]
            cube = _brute_cube(spec, chars)
            vanishing = [eps for eps, x in cube.items() if x == zero and any(eps)]
            assert is_dissociated(chars) == (not vanishing)
            witness = dissociation_witness(chars)
            if vanishing:
                assert witness in vanishing
                assert next(e for e in witness if e) == 1
            else:
                assert witness is None
            members = set(cube.values())
            probes = [spec.character_at(rng.randrange(spec.cardinality)) for _ in range(8)]
            probes += [spec.character(x) for x in rng.sample(sorted(members), min(4, len(members)))]
            cube = Cube(spec, chars)
            for gamma in probes:
                assert (gamma in cube) == (gamma.coords in members)


def test_dissociated_f2_17_coordinate_characters():
    g = GroupSpec((2,) * 17)
    units = [g.character(tuple(int(i == j) for i in range(17))) for j in range(17)]
    assert is_dissociated(units)
    pair_sum = g.character((1, 1) + (0,) * 15)
    assert not is_dissociated(units + [pair_sum])
    witness = dissociation_witness(units + [pair_sum])
    assert witness[0] == 1 and witness[-1] != 0
    total = [sum(e * c.coords[i] for e, c in zip(witness, units + [pair_sum])) % 2
             for i in range(17)]
    assert total == [0] * 17


def test_dissociativity_rejects_mixed_groups():
    z4, z5 = GroupSpec((4,)), GroupSpec((5,))
    with pytest.raises(StructureError):
        is_dissociated([z4.character((1,)), z5.character((1,))])
    with pytest.raises(StructureError):
        z5.character((1,)) in Cube(z5, [z4.character((1,))])


def test_max_dissociated_only_trivial():
    g = GroupSpec((8,))
    sub = GroupSet.full(g)
    tset = spec_threshold(indicator_transform(sub), 1.0)
    assert [c.coords for c in tset.chars] == [(0,)]
    assert max_dissociated(tset) == ()


def test_max_dissociated_inverse_pair_tie():
    g = GroupSpec((5,))
    a = GroupSet.from_coords(g, [(0,), (1,)])
    tset = spec_threshold(indicator_transform(a), 0.5)
    phi = max_dissociated(tset)
    coords = {c.coords[0] for c in phi}
    # gamma and -gamma can never both stay; the lexicographic tie-break keeps one
    assert not ({1, 4} <= coords) and not ({2, 3} <= coords)


def test_magnitude_order_ties_survive_noise():
    alpha = 0.25
    point = 0.9805361183985  # |f^|/alpha rounds up above it, down below it
    for delta in (3e-15, -3e-15):
        ratios = np.array([0.5, point + delta, 0.9, point - delta])
        assert _magnitude_order(ratios * alpha, alpha).tolist() == [1, 3, 2, 0]
    distinct = np.array([0.5, 0.5 + 2e-12, 0.5 - 2e-12]) * alpha
    assert _magnitude_order(distinct, alpha).tolist() == [1, 0, 2]


def test_max_dissociated_z16_trace_and_maximality():
    g = GroupSpec((16,))
    a = _interval(g, 4)
    k = doubling(a).k
    tset = spec_threshold(indicator_transform(a), 1 / (2 * math.sqrt(float(k))))
    phi = max_dissociated(tset)
    assert [c.coords[0] for c in phi] == [1, 2]
    for gamma in tset.chars:
        if gamma.coords in {c.coords for c in phi}:
            continue
        assert not is_dissociated(list(phi) + [gamma])


def test_chang_bound_alpha_half():
    g = GroupSpec((4,))
    sub = GroupSet.from_coords(g, [(0,), (2,)])
    phi = [g.character((2,))]
    report = chang_bound_check(sub, 1.0, phi)
    assert report.holds and report.size == 1
    assert abs(report.bound - 2 * math.log(2)) < EPS


def test_chang_bound_full_group_forces_empty():
    g = GroupSpec((8,))
    report = chang_bound_check(GroupSet.full(g), 1.0, [])
    assert report.holds and report.bound == 0.0


def test_chang_bound_rejects_bad_phi():
    g = GroupSpec((3,))
    a = GroupSet.from_coords(g, [(0,), (1,)])
    with pytest.raises(DomainError):
        chang_bound_check(a, 1.0, [g.character((1,)), g.character((2,))])


def test_chang_campaign(fourier_campaign):
    for a in fourier_campaign[:30]:
        spectrum = indicator_transform(a)
        for rho in (0.25, 0.5, 1.0):
            tset = spec_threshold(spectrum, rho)
            phi = max_dissociated(tset)
            if phi:
                assert chang_bound_check(spectrum, rho, phi).holds


def test_riesz_single_character():
    z5 = GroupSpec((5,))
    f = RieszFunction((z5.character((1,)),), (1.0,), (1 + 0j,))
    report = riesz_moment_check(f, 1.0)
    assert abs(report.mean_square - 0.5) < EPS
    assert report.identity_ok and report.bernstein_ok


def test_riesz_t_zero():
    z7 = GroupSpec((7,))
    f = RieszFunction((z7.character((2,)),), (0.7,), (1j,))
    report = riesz_moment_check(f, 0.0)
    assert abs(report.exp_moment - 1.0) < EPS and report.bernstein_ok


def test_riesz_dissociated_pair_z4():
    z4 = GroupSpec((4,))
    f = RieszFunction(
        (z4.character((1,)), z4.character((2,))), (1.0, 1.0), (1 + 0j, 1 + 0j)
    )
    report = riesz_moment_check(f, 1.0)
    assert report.identity_ok and report.bernstein_ok


def test_riesz_rejects_non_dissociated():
    z3 = GroupSpec((3,))
    f = RieszFunction(
        (z3.character((1,)), z3.character((2,))), (1.0, 1.0), (1 + 0j, 1 + 0j)
    )
    with pytest.raises(DomainError):
        riesz_moment_check(f, 1.0)


def test_bogolyubov_full_group():
    g = GroupSpec((12,))
    report = bogolyubov_bohr(GroupSet.full(g))
    assert report.phi == ()
    assert report.bohr.dimension == 0
    assert bohr_set(report.bohr) == GroupSet.full(g)


def test_bogolyubov_z16_worked_instance():
    g = GroupSpec((16,))
    a = _interval(g, 4)
    report = bogolyubov_bohr(a)
    assert sorted(c.coords[0] for c in report.gamma_raw.chars) == [0, 1, 2, 14, 15]
    raw = bohr_set(BohrSpec(g, report.gamma_raw.chars, Fraction(1, 6)))
    assert sorted(c.coords[0] for c in raw.elements()) == [0, 1, 15]
    d22 = iterated_sumset(a, 2, 2)
    assert raw.is_subset(d22)
    assert all(c.passed for c in report.checks)


def test_bogolyubov_index_two_subgroup():
    g = GroupSpec((4,))
    a = GroupSet.from_coords(g, [(0,), (2,)])
    report = bogolyubov_bohr(a)
    assert [c.coords[0] for c in report.phi] == [2]
    b = bohr_set(report.bohr)
    assert b == a == iterated_sumset(a, 2, 2)


def test_bogolyubov_containment_campaign(fourier_campaign):
    for a in fourier_campaign[:40]:
        report = bogolyubov_bohr(a)
        raw = bohr_set(BohrSpec(a.spec, report.gamma_raw.chars, Fraction(1, 6)))
        assert raw.is_subset(iterated_sumset(a, 2, 2))
        shrunk = bohr_set(report.bohr)
        assert shrunk.is_subset(raw)


def test_cube_span_domination(fourier_campaign):
    for a in fourier_campaign[:15]:
        report = bogolyubov_bohr(a)
        phi = report.phi
        if not phi or len(phi) > 8:
            continue
        cube = Cube(a.spec, phi)
        for gamma, _ in zip(report.gamma_raw.chars, report.gamma_raw.magnitudes):
            assert gamma in cube
        d = len(phi)
        shrunk = bohr_set(report.bohr)
        for gamma in report.gamma_raw.chars:
            for x in shrunk.elements():
                assert gamma.circular_distance(x) <= Fraction(1, 6)


def test_riesz_campaign_random_dissociated(fourier_campaign):
    rng = Random(99)
    groups = {a.spec for a in fourier_campaign}
    for spec in sorted(groups, key=lambda s: s.orders):
        done = 0
        while done < 100:
            d = 1 + rng.randrange(3)
            chars = []
            for _ in range(d):
                idx = 1 + rng.randrange(spec.cardinality - 1)
                chars.append(spec.character_at(idx))
            if len({c.coords for c in chars}) < d or not is_dissociated(chars):
                continue
            coeffs = tuple(rng.uniform(-2, 2) for _ in range(d))
            phases = tuple(
                complex(math.cos(w), math.sin(w))
                for w in (rng.uniform(0, 2 * math.pi) for _ in range(d))
            )
            t = rng.uniform(-2, 2)
            report = riesz_moment_check(RieszFunction(tuple(chars), coeffs, phases), t)
            assert report.identity_ok and report.bernstein_ok
            done += 1
