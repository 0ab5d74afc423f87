from random import Random

import numpy as np
import pytest

from cosetprog import (
    GroupSet,
    GroupSpec,
    read_certificate,
    run_pipeline,
    verify_certificate,
    write_certificate,
)
from cosetprog import fourier, models
from cosetprog.generators import (
    gen_progression,
    gen_random,
    gen_random_in_progression,
    gen_subgroup,
)
from cosetprog.pipeline import PipelineConfig

from conftest import SMALL_SPECS


def _interval(spec, length):
    return GroupSet.from_coords(spec, [(i,) for i in range(length)])


def test_subgroup_certificate():
    g = GroupSpec((8,))
    h = gen_subgroup(g, [[4]])
    cert = run_pipeline(h, PipelineConfig(skip_model=True))
    assert cert.all_passed
    assert cert.doubling_report.k == 1
    assert h.is_subset(cert.cover.q_materialized)
    assert int(dict(cert.summary)["final-dimension"]) <= 1


def test_interval_certificate_model_path():
    g = GroupSpec((1000,))
    a = _interval(g, 10)
    cert = run_pipeline(a, PipelineConfig(s=8))
    assert cert.all_passed
    assert a.is_subset(cert.cover.q_materialized)
    report = verify_certificate(read_certificate(write_certificate(cert)))
    assert report.ok, [e.name for e in report.failures()]


def test_random_subset_z64():
    from cosetprog.generators import gen_random

    a = gen_random(GroupSpec((64,)), 32, seed=4)
    cert = run_pipeline(a, PipelineConfig(skip_model=True))
    assert cert.all_passed
    report = verify_certificate(read_certificate(write_certificate(cert)))
    assert report.ok


def test_round_trip_byte_identical():
    g = GroupSpec((128,))
    a = gen_random_in_progression(g, [0], [[1]], [20], 12, seed=9)
    config = PipelineConfig(skip_model=True)
    t1 = write_certificate(run_pipeline(a, config))
    t2 = write_certificate(run_pipeline(a, config))
    assert t1 == t2
    assert write_certificate(read_certificate(t1)) == t1


def test_verify_detects_containment_tamper():
    g = GroupSpec((100,))
    a = _interval(g, 10)
    cert = run_pipeline(a, PipelineConfig(skip_model=True))
    text = write_certificate(cert)
    lines = text.splitlines()
    start = lines.index("begin q")
    end = lines.index("end q", start)
    tampered = []
    for i, line in enumerate(lines):
        if start < i < end and line.startswith("gen "):
            parts = line.split()
            lo, hi = int(parts[-2]), int(parts[-1])
            if hi - lo > 1:
                parts[-2], parts[-1] = "0", "0"
                tampered.append(" ".join(parts))
                continue
        tampered.append(line)
    report = verify_certificate(read_certificate("\n".join(tampered) + "\n"))
    assert not report.ok
    assert any(e.name == "final_containment" for e in report.failures())


def test_verify_detects_minima_tamper():
    g = GroupSpec((101,))
    a = _interval(g, 4)
    cert = run_pipeline(a, PipelineConfig(skip_model=True))
    assert cert.minima is not None
    text = write_certificate(cert)
    lines = []
    for line in text.splitlines():
        if line.startswith("minimum "):
            parts = line.split()
            lam = parts[1]
            num = int(lam.split("/")[0]) if "/" in lam else int(lam)
            den = lam.split("/")[1] if "/" in lam else "1"
            parts[1] = f"{num * 1000}/{den}"
            lines.append(" ".join(parts))
        else:
            lines.append(line)
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    assert not report.ok
    assert any(e.name == "minkowski" for e in report.failures())


def _phi_block(text):
    lines = text.splitlines()
    start = lines.index("begin phi")
    return lines, start, lines.index("end phi", start)


def test_verify_detects_dropped_phi_character():
    cert = run_pipeline(_interval(GroupSpec((100,)), 10), PipelineConfig(skip_model=True))
    lines, start, end = _phi_block(write_certificate(cert))
    assert end - start > 2
    dropped = int(lines[end - 1].split()[1])
    del lines[end - 1]
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    failed = {e.name: e.detail for e in report.failures()}
    assert "phi_maximal" in failed
    # the first gamma-raw character outside the cube is the dropped one or its inverse
    named = {f"chi({c}) outside the cube of phi" for c in (dropped, -dropped % 100)}
    assert failed["phi_maximal"] in named


def test_verify_detects_dependent_phi_character():
    g = GroupSpec((100,))
    cert = run_pipeline(_interval(g, 10), PipelineConfig(skip_model=True))
    first, second = cert.phi[:2]
    pair_sum = g.character(((first.coords[0] + second.coords[0]) % 100,))
    lines, start, end = _phi_block(write_certificate(cert))
    lines.insert(end, f"char {pair_sum.coords[0]}")
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    failed = {e.name: e.detail for e in report.failures()}
    assert "phi_dissociated" in failed
    d = len(cert.phi)
    assert failed["phi_dissociated"].startswith(f"{pair_sum!r} in the cube of phi[:{d}], witness ")


def test_verify_detects_map_tamper():
    g = GroupSpec((200,))
    a = _interval(g, 3)
    cert = run_pipeline(a, PipelineConfig(s=8))
    assert not cert.model.is_identity
    text = write_certificate(cert)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("pair ") and line.endswith(" 1"):
            lines[i] = line[:-2] + " 2"
            break
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    assert not report.ok


def test_cli_round_trip(tmp_path, capsys):
    from cosetprog.cli import main
    from cosetprog.textio import write_group_set

    g = GroupSpec((64,))
    a = _interval(g, 6)
    set_file = tmp_path / "a.txt"
    set_file.write_text(write_group_set(a))
    cert_file = tmp_path / "cert.txt"
    code = main(["pipeline", str(set_file), "--skip-model", "--out", str(cert_file)])
    assert code == 0
    code = main(["verify", str(cert_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified 1" in out


def test_cli_analyze_and_gen(tmp_path, capsys):
    from cosetprog.cli import main

    code = main(["gen", "random", "--orders", "32", "--size", "8", "--seed", "3"])
    assert code == 0
    gen_out = capsys.readouterr().out
    set_file = tmp_path / "g.txt"
    set_file.write_text("".join(
        line + "\n" for line in gen_out.splitlines() if not line.startswith("#")
    ))
    code = main(["analyze", str(set_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "doubling" in out


def test_cli_cover_subcommand(tmp_path, capsys):
    from cosetprog.cli import main
    from cosetprog.textio import write_group_set, write_progression
    from cosetprog import CosetProgression, subgroup_closure

    g = GroupSpec((100,))
    a = _interval(g, 10)
    h = subgroup_closure(g, [])
    cp = CosetProgression(g, g.zero(), (g.element((1,)),), ((-18, 18),), h, True)
    (tmp_path / "a.txt").write_text(write_group_set(a))
    (tmp_path / "p.txt").write_text(write_progression(cp))
    code = main(["cover", str(tmp_path / "a.txt"), str(tmp_path / "p.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "check cover_containment pass" in out


def test_cli_usage_error_exit_two(tmp_path):
    from cosetprog.cli import main

    assert main(["analyze", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize("command", [["fourier"], ["pipeline", "--skip-model"]])
def test_cli_malformed_token_exit_two(tmp_path, capsys, command):
    from cosetprog.cli import main

    set_file = tmp_path / "bad.txt"
    set_file.write_text("group 8\nelem x\n")
    assert main([command[0], str(set_file), *command[1:]]) == 2
    assert "malformed integer token 'x'" in capsys.readouterr().err


def _zoo_certificates():
    """Certificates for random, interval and random-in-interval sets on each
    zoo shape, with the model on and off."""
    rng = Random(0)
    texts = []
    for spec in SMALL_SPECS:
        e0 = [0] * spec.rank
        e0[0] = 1
        for family in ("random", "interval", "random-in-interval"):
            size = 1 + rng.randrange(min(spec.cardinality, 64))
            draw = rng.randrange(1 << 30)
            if family == "random":
                a = gen_random(spec, size, draw)
            elif family == "interval":
                length = max(2, min(size, spec.orders[0]))
                a = gen_progression(spec, [0] * spec.rank, [e0], [length])
            else:
                span = min(spec.orders[0], max(4, 2 * size))
                a = gen_random_in_progression(
                    spec, [0] * spec.rank, [e0], [span], size, draw
                )
            for skip_model in (False, True):
                config = PipelineConfig(skip_model=skip_model)
                texts.append(write_certificate(run_pipeline(a, config)))
    return texts


def _same_but_last_printed_digit(text, other):
    """Token for token equal, except that a printed float may move in its last
    (12th significant) digit."""
    lines, other_lines = text.splitlines(), other.splitlines()
    if len(lines) != len(other_lines):
        return False
    for line, other_line in zip(lines, other_lines):
        tokens, other_tokens = line.split(), other_line.split()
        if len(tokens) != len(other_tokens):
            return False
        for t, u in zip(tokens, other_tokens):
            if t == u:
                continue
            if "." not in t or "." not in u:
                return False
            if abs(float(t) - float(u)) > 2e-11 * abs(float(t)):
                return False
    return True


def test_certificates_ignore_transform_noise(monkeypatch):
    clean = _zoo_certificates()
    exact = fourier.indicator_transform
    rng = np.random.default_rng(14)

    def noisy(a, cap=None):
        s = exact(a, cap)
        noise = 1 + 1e-14 * rng.uniform(-1, 1, s.values.shape)
        return fourier.Spectrum(s.spec, s.set_size, s.values * noise)

    monkeypatch.setattr(fourier, "indicator_transform", noisy)
    monkeypatch.setattr(models, "indicator_transform", noisy)
    perturbed = _zoo_certificates()
    assert len(clean) == len(perturbed) == 84
    changed = [i for i, (t, u) in enumerate(zip(clean, perturbed)) if t != u]
    assert all(_same_but_last_printed_digit(clean[i], perturbed[i]) for i in changed)
