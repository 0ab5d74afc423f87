"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every campaign is seeded and deterministic; tolerances are pinned here and
match the module defaults (1e-9 relative for floating identities, exact
rational or integer comparison everywhere else).
"""

import math
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import cosetprog as cp
from cosetprog import (
    BohrSpec,
    GroupSet,
    GroupSpec,
    RieszFunction,
    bohr_set,
    bogolyubov_bohr,
    chang_bound_check,
    doubling,
    f2_shrink,
    indicator_transform,
    is_dissociated,
    is_freiman_iso,
    iterated_sumset,
    materialize,
    max_dissociated,
    minimize_model,
    plunnecke_check,
    progression_from_bohr,
    riesz_moment_check,
    run_pipeline,
    spec_threshold,
    successive_minima,
    verify_certificate,
    z_model,
)
from cosetprog.fourier import inversion_values
from cosetprog.generators import (
    gen_counterexample,
    gen_progression,
    gen_random,
    gen_random_in_progression,
    gen_subgroup,
)
from cosetprog.pipeline import PipelineConfig, read_certificate, write_certificate
from cosetprog.textio import write_group_set

from conftest import campaign_sets, map_from_table, oracle_freiman_hom, seeded_minima_cases

EPS = 1e-9
_SUITE_START = time.time()


def _report(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


PLUNNECKE_SPECS = [
    GroupSpec((4096,)),
    GroupSpec((2048, 2)),
    GroupSpec((64, 64)),
    GroupSpec((16, 16, 16)),
    GroupSpec((2,) * 12,),
    GroupSpec((3125,)),
    GroupSpec((729, 3)),
    GroupSpec((1024,)),
    GroupSpec((100, 40)),
    GroupSpec((4093,)),
]


def test_criterion_1_plunnecke_campaign():
    rng = Random(11)
    pairs = [(k, l) for k in range(5) for l in range(5) if 1 <= k + l <= 4]
    start = time.time()
    checked = 0
    for case in range(1000):
        spec = PLUNNECKE_SPECS[case % len(PLUNNECKE_SPECS)]
        size = 2 + rng.randrange(40)
        if case % 3 == 0:
            e0 = [0] * spec.rank
            e0[0] = 1
            span = min(spec.orders[0], max(4, 2 * size))
            a = gen_random_in_progression(
                spec, [0] * spec.rank, [e0], [span], size, seed=case
            )
        else:
            a = gen_random(spec, size, seed=case)
        for k, l in pairs:
            assert plunnecke_check(a, k, l).holds
            checked += 1
    elapsed = time.time() - start
    _report(1, "plunnecke-campaign", checked == 14000 and elapsed < 60.0,
            f"14000 checks in {elapsed:.1f}s")


def test_criterion_2_fourier_identities(fourier_campaign):
    worst_plancherel = 0.0
    worst_inversion = 0.0
    worst_symmetry = 0.0
    for a in fourier_campaign:
        spectrum = indicator_transform(a)
        alpha = float(spectrum.density)
        gap = abs(float(np.sum(spectrum.magnitudes**2)) - alpha)
        worst_plancherel = max(worst_plancherel, gap / max(alpha, 1e-300))
        values = inversion_values(spectrum)
        mask = np.zeros(a.spec.cardinality)
        mask[a.indices] = 1.0
        worst_inversion = max(worst_inversion, float(np.max(np.abs(values - mask))))
        neg = a.spec.negate_indices(np.arange(a.spec.cardinality, dtype=np.int64))
        sym = float(np.max(np.abs(spectrum.values[neg] - np.conj(spectrum.values))))
        worst_symmetry = max(worst_symmetry, sym)
    ok = worst_plancherel <= EPS and worst_inversion <= 1e-8 and worst_symmetry <= EPS
    _report(2, "fourier-identities", ok,
            f"plancherel {worst_plancherel:.2e}, inversion {worst_inversion:.2e}")


def test_criterion_3_bogolyubov_containment():
    sets = campaign_sets(512, 200, seed=300, min_density=Fraction(1, 8))
    assert len(sets) == 200
    for a in sets:
        report = bogolyubov_bohr(a)
        raw = bohr_set(BohrSpec(a.spec, report.gamma_raw.chars, Fraction(1, 6)))
        assert raw.is_subset(iterated_sumset(a, 2, 2))
    g16 = GroupSpec((16,))
    a16 = GroupSet.from_coords(g16, [(i,) for i in range(4)])
    report = bogolyubov_bohr(a16)
    assert sorted(c.coords[0] for c in report.gamma_raw.chars) == [0, 1, 2, 14, 15]
    raw16 = bohr_set(BohrSpec(g16, report.gamma_raw.chars, Fraction(1, 6)))
    assert sorted(e.coords[0] for e in raw16.elements()) == [0, 1, 15]
    assert raw16.is_subset(iterated_sumset(a16, 2, 2))
    _report(3, "bogolyubov-containment", True, "200 cases + worked Z/16 instance")


def test_criterion_4_chang_and_riesz():
    sets = campaign_sets(512, 200, seed=300, min_density=Fraction(1, 8))
    for a in sets:
        spectrum = indicator_transform(a)
        for rho in (0.25, 0.5, 1.0):
            tset = spec_threshold(spectrum, rho)
            phi = max_dissociated(tset)
            report = chang_bound_check(spectrum, rho, phi)
            assert report.holds, (a.spec, rho, report)
    rng = Random(400)
    groups = sorted({a.spec for a in sets}, key=lambda s: s.orders)
    riesz_checked = 0
    plain_identity_checked = 0
    for spec in groups:
        done = 0
        while done < 100:
            d = 1 + rng.randrange(3)
            chars = [
                spec.character_at(1 + rng.randrange(spec.cardinality - 1))
                for _ in range(d)
            ]
            if len({c.coords for c in chars}) < d or not is_dissociated(chars):
                continue
            coeffs = tuple(rng.uniform(-2, 2) for _ in range(d))
            phases = tuple(
                complex(math.cos(w), math.sin(w))
                for w in (rng.uniform(0, 2 * math.pi) for _ in range(d))
            )
            t = rng.uniform(-2, 2)
            rep = riesz_moment_check(RieszFunction(tuple(chars), coeffs, phases), t)
            assert rep.identity_ok and rep.bernstein_ok
            if all(c.order() > 2 for c in chars):
                assert abs(rep.mean_square - rep.coeff_half_sum) <= EPS * max(
                    1.0, rep.coeff_half_sum
                )
                plain_identity_checked += 1
            riesz_checked += 1
            done += 1
    _report(4, "chang-and-riesz", riesz_checked == 100 * len(groups),
            f"{riesz_checked} riesz checks, {plain_identity_checked} at plain identity")


def test_criterion_5_minkowski_extraction():
    cases = seeded_minima_cases(100, seed=500)
    for spec, chars, rho in cases:
        minima = successive_minima(list(chars))
        assert math.prod(minima.lambdas, start=Fraction(1)) <= minima.det
        ext = progression_from_bohr(BohrSpec(spec, chars, rho))
        cpg = ext.progression
        realized = materialize(cpg)
        assert cpg.proper
        assert realized.is_subset(bohr_set(BohrSpec(spec, ext.minima.chars, rho)))
        d = ext.minima.dimension
        assert realized.size >= (rho / d) ** d * spec.cardinality
    g101 = GroupSpec((101,))
    ext = progression_from_bohr(BohrSpec(g101, (g101.character((1,)),), Fraction(1, 5)))
    got = sorted(e.coords[0] for e in materialize(ext.progression).elements())
    assert got == sorted(list(range(21)) + list(range(81, 101)))
    _report(5, "minkowski-extraction", True, "100 cases + exact Z/101 window")


def test_criterion_6_freiman_machinery():
    rng = Random(600)
    agreements = 0
    for _ in range(500):
        n = 4 + rng.randrange(9)
        m = 4 + rng.randrange(9)
        src, tgt = GroupSpec((n,)), GroupSpec((m,))
        size = 2 + rng.randrange(min(7, n - 2))
        dom_idx = sorted(rng.sample(range(n), size))
        table = {i: rng.randrange(m) for i in dom_idx}
        phi = map_from_table(src, tgt, table)
        s = 2 + rng.randrange(2)
        if cp.is_freiman_hom(phi, s).ok == oracle_freiman_hom(phi, s):
            agreements += 1
    transports = 0
    specs = [GroupSpec((64,)), GroupSpec((32, 2)), GroupSpec((16, 8)), GroupSpec((128,))]
    while transports < 100:
        spec = specs[transports % len(specs)]
        h = cp.subgroup_closure(
            spec,
            [spec.element_at(rng.randrange(spec.cardinality))] if rng.randrange(2) else [],
        )
        gens = []
        bounds = []
        for _ in range(1 + rng.randrange(2)):
            gens.append(spec.element_at(1 + rng.randrange(spec.cardinality - 1)))
            l = 1 + rng.randrange(3)
            bounds.append((-l, l))
        base = spec.element_at(rng.randrange(spec.cardinality))
        prog = cp.CosetProgression(spec, base, tuple(gens), tuple(bounds), h, False)
        realized = materialize(prog)
        if realized.size != prog.formal_size:
            continue
        prog = cp.CosetProgression(spec, base, tuple(gens), tuple(bounds), h, True)
        unit = 1 + rng.randrange(spec.orders[0] - 1)
        if math.gcd(unit, spec.orders[0]) != 1:
            continue
        table = {}
        for idx in range(spec.cardinality):
            c = spec.coords_of(idx)
            table[idx] = spec.index_of((c[0] * unit % spec.orders[0],) + c[1:])
        psi = map_from_table(spec, spec, table)
        out = cp.transport_progression(psi, prog)
        assert out.dimension == prog.dimension
        assert materialize(out).size == realized.size
        transports += 1
    _report(6, "freiman-machinery", agreements == 500 and transports == 100,
            f"{agreements}/500 oracle agreements, {transports} transports")


def test_criterion_7_model_finding():
    assert z_model([0, 1, 2]).modulus == 5
    f24 = GroupSpec((2, 2, 2, 2))
    pair = GroupSet.from_coords(f24, [(1, 0, 0, 0), (0, 1, 0, 0)])
    trace = f2_shrink(pair)
    assert trace.final_set.spec.cardinality == 2
    rng = Random(700)
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
            tr = minimize_model(a, s)
            for stage in tr.stages:
                assert is_freiman_iso(stage.map, s).ok
            assert is_freiman_iso(tr.composite, s).ok
        elif mode == 1:
            m = 3 + rng.randrange(4)
            spec = GroupSpec((2,) * m)
            a = gen_random(spec, 2 + rng.randrange(3), seed=1000 + cases)
            tr = f2_shrink(a)
            for stage in tr.stages:
                assert is_freiman_iso(stage.map, 2).ok
            k = doubling(a).k
            assert Fraction(tr.final_set.spec.cardinality) <= k**4 * a.size
        else:
            vals = sorted(rng.sample(range(500), 3 + rng.randrange(5)))
            report = z_model(vals)
            two_a = sorted({x + y for x in vals for y in vals})
            assert len({v % report.modulus for v in two_a}) == len(two_a)
            for m in range(2, report.modulus):
                assert len({v % m for v in two_a}) < len(two_a)
        cases += 1
    _report(7, "model-finding", cases == 100, "z-model, two-torsion, spectral paths")


def _covering_campaign_sets() -> list[GroupSet]:
    """200 deterministic sets with doubling at most 3 in groups up to 1024."""
    rng = Random(800)
    specs = [
        GroupSpec((1024,)),
        GroupSpec((512,)),
        GroupSpec((256, 4)),
        GroupSpec((32, 32)),
        GroupSpec((2,) * 10,),
        GroupSpec((125, 5)),
        GroupSpec((729,)),
        GroupSpec((100, 10)),
    ]
    out: list[GroupSet] = []
    attempt = 0
    while len(out) < 200:
        spec = specs[attempt % len(specs)]
        attempt += 1
        style = rng.randrange(4)
        if style == 0:
            e0 = [0] * spec.rank
            e0[0] = 1
            length = 4 + rng.randrange(max(4, spec.orders[0] // 2))
            a = gen_progression(spec, [0] * spec.rank, [e0], [min(length, spec.orders[0])])
        elif style == 1:
            div = next((d for d in (2, 4, 8) if spec.orders[0] % d == 0), 2)
            gen = [0] * spec.rank
            gen[0] = spec.orders[0] // div
            a = gen_subgroup(spec, [gen])
        elif style == 2:
            e0 = [0] * spec.rank
            e0[0] = 1
            size = 6 + rng.randrange(20)
            span = min(spec.orders[0], size + 2 + rng.randrange(6))
            a = gen_random_in_progression(
                spec, [0] * spec.rank, [e0], [span], size, seed=attempt
            )
        else:
            e0 = [0] * spec.rank
            e0[0] = 1
            length = 6 + rng.randrange(12)
            base = [0] * spec.rank
            if spec.rank > 1:
                base[1] = rng.randrange(spec.orders[1])
            part = gen_progression(spec, base, [e0], [min(length, spec.orders[0])])
            a = GroupSet(spec, np.concatenate([
                part.indices,
                gen_progression(spec, [0] * spec.rank, [e0],
                                [min(length, spec.orders[0])]).indices,
            ]))
        if doubling(a).k <= 3:
            out.append(a)
    return out


@pytest.fixture(scope="module")
def covering_certificates():
    sets = _covering_campaign_sets()
    config = PipelineConfig(skip_model=True)
    return [(a, run_pipeline(a, config)) for a in sets]


def test_criterion_8_covering_campaign(covering_certificates):
    assert len(covering_certificates) == 200
    for a, cert in covering_certificates:
        cover = cert.cover
        k = cover.input.doubling.k
        assert k <= 3
        assert a.is_subset(materialize(cover.q))
        assert cover.input.eta * Fraction(2) ** cover.t <= k**4
        assert cover.q.dimension <= cover.input.dimension + 2 * cover.mk * (cover.t + 1)
        for i in range(cover.t):
            assert cover.p_sizes[i + 1] == cover.p_sizes[i] * cover.s_sets[i].size
        assert cover.p_sizes[cover.t] <= k ** (cover.t + 4) * a.size
    _report(8, "covering-campaign", True, "200 pipeline-fed cases")


def test_criterion_9_end_to_end(covering_certificates):
    config = PipelineConfig(skip_model=True)
    for a, cert in covering_certificates:
        text = write_certificate(cert)
        assert verify_certificate(read_certificate(text)).ok
        assert write_certificate(run_pipeline(a, config)) == text
    model_cases = [
        GroupSet.from_coords(GroupSpec((200,)), [(i,) for i in (0, 1, 2)]),
        GroupSet.from_coords(GroupSpec((150,)), [(i,) for i in (0, 1, 3)]),
        GroupSet.from_coords(GroupSpec((50, 2)), [(i, 0) for i in (0, 1)]),
        GroupSet.from_coords(GroupSpec((120,)), [(0,), (2,), (3,)]),
    ]
    for a in model_cases:
        cert = run_pipeline(a, PipelineConfig())
        text = write_certificate(cert)
        assert verify_certificate(read_certificate(text)).ok
        assert write_certificate(run_pipeline(a, PipelineConfig())) == text
    elapsed = time.time() - _SUITE_START
    _report(9, "end-to-end", elapsed < 900.0,
            f"204 verified round trips, suite at {elapsed:.0f}s")


def test_criterion_10_generators():
    report = gen_counterexample([2, 3], 5)
    assert (report.size, report.sumset_size, report.doubling) == (20, 30, Fraction(3, 2))
    import hashlib

    digests = []
    for seed in (0, 7, 42):
        a = gen_random(GroupSpec((64,)), 16, seed=seed)
        digests.append(hashlib.sha256(write_group_set(a).encode()).hexdigest())
    again = [
        hashlib.sha256(
            write_group_set(gen_random(GroupSpec((64,)), 16, seed=s)).encode()
        ).hexdigest()
        for s in (0, 7, 42)
    ]
    frozen = [
        "79ebee4e5319e5eabf43c488214c3cd5dff81283a35916a3394b0ee07b56f026",
        "fec1c3b790643a0e6cc8edfd7efabcae7c8cc033e8ec2e0057468e12dec14b3a",
        "e3bef05fc80d640fbc63ecd630a0a76e402187b359b8065c7a400e78d9c6b48f",
    ]
    _report(10, "generators", digests == again == frozen, "golden hashes stable")
