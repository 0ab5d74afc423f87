import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cosetprog import (
    DomainError,
    GroupSet,
    GroupSpec,
    ResourceLimitError,
    materialize,
    read_certificate,
    run_pipeline,
    verify_certificate,
    write_certificate,
)
from cosetprog import fourier, models
from cosetprog.checks import parse_scalar
from cosetprog.generators import gen_random_in_progression, gen_subgroup
from cosetprog.groups import ENUMERATION_CAP
from cosetprog.pipeline import PipelineConfig, _open_sections
from cosetprog.textio import fmt_float, parse_int, read_group_set

from conftest import zoo_sets


def _interval(spec, length):
    return GroupSet.from_coords(spec, [(i,) for i in range(length)])


def test_subgroup_certificate():
    g = GroupSpec((8,))
    h = gen_subgroup(g, [[4]])
    cert = run_pipeline(h, PipelineConfig(skip_model=True))
    assert cert.all_passed
    assert cert.doubling_report.k == 1
    assert h.is_subset(materialize(cert.cover.q))
    assert int(dict(cert.summary)["final-dimension"]) <= 1


def test_interval_certificate_model_path():
    g = GroupSpec((1000,))
    a = _interval(g, 10)
    cert = run_pipeline(a, PipelineConfig())
    assert cert.all_passed
    assert a.is_subset(materialize(cert.cover.q))
    report = verify_certificate(read_certificate(write_certificate(cert)))
    assert report.ok, [e.name for e in report.failures()]


def test_random_subset_z64():
    from cosetprog.generators import gen_random

    a = gen_random(GroupSpec((64,)), 32, seed=4)
    cert = run_pipeline(a, PipelineConfig(skip_model=True))
    assert cert.all_passed
    report = verify_certificate(read_certificate(write_certificate(cert)))
    assert report.ok


def test_minima_budget_outcome_on_long_cyclic_groups():
    # a dense random subset of [0, 120) has minima dimension 7 in Z/2^14,
    # which certifies, and 11 in Z/2^18, where (|G:H| - 1) 2^d exceeds
    # the candidate budget before any candidate is scanned
    config = PipelineConfig(skip_model=True)
    a = gen_random_in_progression(GroupSpec((1 << 18,)), [0], [[1]], [120], 100, seed=4)
    with pytest.raises(ResourceLimitError,
                       match="^minima candidate enumeration too large in dimension 11$"):
        run_pipeline(a, config)
    a = gen_random_in_progression(GroupSpec((1 << 14,)), [0], [[1]], [120], 100, seed=0)
    cert = run_pipeline(a, config)
    assert cert.all_passed and cert.minima.dimension == 7
    report = verify_certificate(read_certificate(write_certificate(cert)))
    assert report.ok, [e.name for e in report.failures()]


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (6,), (8,), (3, 3)], ids=str)
def test_every_subset_of_a_tiny_group_certifies(orders):
    """Every nonempty subset, model on and off, certifies with every check
    passed, verifies and round-trips byte for byte."""
    spec = GroupSpec(orders)
    for bits in range(1, 1 << spec.cardinality):
        a = GroupSet(spec, np.flatnonzero([bits >> i & 1 for i in range(spec.cardinality)]))
        for skip_model in (False, True):
            where = f"{list(a.indices)} skip_model={skip_model}"
            cert = run_pipeline(a, PipelineConfig(skip_model=skip_model))
            assert cert.all_passed, where
            text = write_certificate(cert)
            back = read_certificate(text)
            assert verify_certificate(back).ok, where
            assert write_certificate(back) == text, where


def test_round_trip_byte_identical():
    g = GroupSpec((128,))
    a = gen_random_in_progression(g, [0], [[1]], [20], 12, seed=9)
    config = PipelineConfig(skip_model=True)
    t1 = write_certificate(run_pipeline(a, config))
    t2 = write_certificate(run_pipeline(a, config))
    assert t1 == t2
    assert write_certificate(read_certificate(t1)) == t1


def test_verify_detects_containment_tamper():
    """Q is derived from the translates, so a Q whose {-1, 0, 1} ranges are
    cut to {0} is one stored value that differs, and every check, judged on
    the derived Q, passes."""
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
    assert [(e.name, e.detail) for e in report.failures()] == [
        ("stored_value", "cover/q: stored 'gen 0 0 0', derived 'gen 0 -1 1'")
    ]


def test_verify_reports_an_emptied_last_translate_set():
    a = GroupSet(GroupSpec((16,)), np.array([0, 1, 2, 5]))
    lines = write_certificate(run_pipeline(a, PipelineConfig(skip_model=True))).splitlines()
    start = lines.index("begin r0")
    emptied = lines[: start + 2] + lines[lines.index("end r0", start):]  # keep the group line
    report = verify_certificate(read_certificate("\n".join(emptied) + "\n"))
    assert "cover_round_0_maximal" in {e.name for e in report.failures()}


def _scale_minima(text):
    """Every successive minimum of ``text`` multiplied by 1000."""
    lines = []
    for line in text.splitlines():
        if line.startswith("minimum "):
            parts = line.split()
            num, _, den = parts[1].partition("/")
            parts[1] = f"{int(num) * 1000}/{den or 1}"
            line = " ".join(parts)
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_verify_detects_minima_tamper():
    g = GroupSpec((101,))
    a = _interval(g, 4)
    cert = run_pipeline(a, PipelineConfig(skip_model=True))
    assert cert.minima is not None
    report = verify_certificate(read_certificate(_scale_minima(write_certificate(cert))))
    assert not report.ok
    assert any(e.name == "bohr_minkowski" for e in report.failures())


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
    # the first threshold character outside the cube is the dropped one or its inverse
    named = {f"chi({c}) outside the cube of phi" for c in (dropped, -dropped % 100)}
    assert failed["phi_maximal"] in named


def test_verify_detects_phi_character_outside_the_threshold_set():
    cert = run_pipeline(_interval(GroupSpec((100,)), 10), PipelineConfig(skip_model=True))
    lines, start, end = _phi_block(write_certificate(cert))
    assert lines[end - 1] == "char 4"
    lines[end - 1] = "char 50"  # 1_[0,10) has coefficient 0 at 50
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    failed = {e.name: e.detail for e in report.failures()}
    found = re.fullmatch(
        r"chi\(50\) has magnitude (\S+) below the threshold (\S+)", failed["phi_inside_raw"]
    )
    assert found, failed["phi_inside_raw"]
    magnitude, threshold = map(float, found.groups())
    assert magnitude < 1e-12
    assert threshold == pytest.approx(cert.threshold_rho * float(cert.alpha))


def test_verify_names_the_first_minimum_that_breaks():
    cert = run_pipeline(_interval(GroupSpec((100,)), 10), PipelineConfig(skip_model=True))
    lines, start, end = _phi_block(write_certificate(cert))
    lines[end - 1] = "char 50"  # the minima's vectors were computed for char 4
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    failed = {e.name: e.detail for e in report.failures()}
    assert re.fullmatch(
        r"minimum \d+: coordinate \S+ is not chi\(50\) at the preimage, \S+, mod 1",
        failed["minima_vectors"],
    ), failed["minima_vectors"]

    lines = write_certificate(cert).splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("minimum "))
    lines[first + 1] = lines[first]  # the second minimum repeats the first
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    failed = {e.name: e.detail for e in report.failures()}
    assert "minima_vectors" not in failed
    assert failed["minima_independent"] == (
        "minimum 1's vector lies in the span of the ones before it"
    )


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


def _interval_1024_certificate():
    text = write_certificate(run_pipeline(_interval(GroupSpec((1024,)), 16), PipelineConfig()))
    assert "begin stage\ngroup 1024\ngamma 1\nq 1024\ninterval 0 15\nend stage\n" in text
    return text


# (stage line, tampered line, entry that fails, its detail)
STAGE_TAMPERS = {
    "gamma": ("gamma 1", "gamma 3", "model_stage_0", "the given interval does not contain psi(A)"),
    "interval": ("interval 0 15", "interval 700 15", "model_stage_0",
                 "the given interval does not contain psi(A)"),
    "q": ("q 1024", "q 512", "model_stage_0", "q does not equal the character order"),
    "group": ("group 1024\ngamma 1", "group 1000\ngamma 1", "model_stage_0",
              "gamma is a character of Z/1000, not of the set's group Z/1024"),
    "interval-start": ("interval 0 15", "interval 1024 15", "stored_value",
                       "model/stage: stored 'interval 1024 15', derived 'interval 0 15'"),
}


@pytest.mark.parametrize("line, tampered, name, detail", STAGE_TAMPERS.values(),
                         ids=list(STAGE_TAMPERS))
def test_verify_rejects_a_tampered_stage_choice(line, tampered, name, detail):
    """Each stage map is derived from the stored choice, so a choice that
    shrink_model_step rejects fails its stage with the derivation's message,
    and one that derives another stage differs from its derivation."""
    text = _interval_1024_certificate()
    bad = text.replace(f"\n{line}\n", f"\n{tampered}\n", 1)
    assert bad != text
    report = verify_certificate(read_certificate(bad))
    failed = [(e.name, e.detail) for e in report.failures()]
    assert (name, detail) in failed, failed
    if name == "model_stage_0":  # the chain stops there, and no transport map is derived
        assert ("transport", "the model chain was not derived") in failed
        assert "model_composite" not in {e.name for e in report.entries}


def test_verify_says_why_a_transported_progression_is_wrong():
    """The progression is derived by transport, so a stored one that differs
    is named by its line, and nothing derived from it fails."""
    lines = _interval_1024_certificate().splitlines()
    start = lines.index("begin progression")
    assert lines[start + 2] == "base 0"
    lines[start + 2] = "base 1"
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    assert [(e.name, e.detail) for e in report.failures()] == [
        ("stored_value", "progression: stored 'base 1', derived 'base 0'")
    ]


def test_verify_derives_the_progression_of_a_subgroup_from_its_choices():
    """A shifted base makes the same point set, the subgroup itself, so only
    the progression derived by transport tells it from the stored one."""
    spec = GroupSpec((12, 12))
    cert = run_pipeline(gen_subgroup(spec, [[1, 0]]), PipelineConfig())
    assert cert.model.stages
    lines = write_certificate(cert).splitlines()
    start = lines.index("begin progression")
    assert lines[start + 2] == "base 0 0"
    lines[start + 2] = "base 1 0"
    back = read_certificate("\n".join(lines) + "\n")
    assert materialize(back.progression) == materialize(cert.progression)
    assert [(e.name, e.detail) for e in verify_certificate(back).failures()] == [
        ("stored_value", "progression: stored 'base 1 0', derived 'base 0 0'")
    ]


def test_verify_names_the_element_a_round_leaves_uncovered(model_on_certificate):
    """With the last element x of R_0 dropped, P_0 + x meets no translate in
    P_0 + R_0, and every element of A before x was rejected by a translate
    before it, so x is the first element that breaks maximality."""
    lines = model_on_certificate[1].splitlines()
    end = lines.index("end r0")
    dropped = lines[end - 1].split()[1]
    assert dropped == "4"
    del lines[end - 1]
    report = verify_certificate(read_certificate("\n".join(lines) + "\n"))
    failed = {e.name: e.detail for e in report.failures()}
    assert failed["cover_round_0_maximal"] == (
        "(4) is in A but not in R_0, and P_0 + (4) misses P_0 + R_0"
    )
    # R_0 now holds only ceil(2K) = 4 elements, too few to adjoin a batch
    assert failed["cover_round_0_batch"] == (
        "|S_0| = 4 with 0 point(s) outside R_0, |R_0| = 4, ceil(2K) = 4"
    )
    assert "cover_round_0_disjoint" not in failed


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


# each subcommand with the arguments it needs; FILE is an existing file
SUBCOMMANDS = {
    "analyze": ["FILE"],
    "fourier": ["FILE"],
    "bohr": ["FILE"],
    "model": ["FILE"],
    "zmodel": ["FILE"],
    "f2shrink": ["FILE"],
    "cover": ["FILE", "FILE"],
    "pipeline": ["FILE"],
    "verify": ["FILE"],
    "gen": ["random"],
    "explore": ["--p", "3", "--x", "10"],
}


# the options that became constants or went, and what argparse leaves
# unrecognized: the cap on every subcommand (the subcommand is the case's
# id), then the model order (of pipeline and model), tolerance and log
# base, and model's density target; prefix matching is off, so "--s" is
# not read as short for --skip-model and is refused by its own name
RETIRED_OPTIONS = [
    *(pytest.param(command, "--cap 1", "--cap 1", id=command) for command in SUBCOMMANDS),
    pytest.param("pipeline", "--s 8", "--s 8", id="pipeline--s"),
    pytest.param("model", "--s 8", "--s 8", id="model--s"),
    pytest.param("model", "--target 1", "--target 1", id="model--target"),
    pytest.param("pipeline", "--tolerance 1e-9", "--tolerance 1e-9", id="pipeline--tolerance"),
    pytest.param("pipeline", "--log2", "--log2", id="pipeline--log2"),
    pytest.param("bohr", "--log2", "--log2", id="bohr--log2"),
]


@pytest.mark.parametrize("command, option, unrecognized", RETIRED_OPTIONS)
def test_cli_takes_no_cap(tmp_path, capsys, command, option, unrecognized):
    """The enumeration cap (2^20), the model order (8), the spectral
    tolerance (1e-9) and the log base (e) are constants, not options, and
    model runs until the set fills its group or no step shrinks it."""
    from cosetprog.cli import main
    from cosetprog.textio import write_group_set

    set_file = tmp_path / "a.txt"
    set_file.write_text(write_group_set(_interval(GroupSpec((8,)), 3)))
    args = [str(set_file) if arg == "FILE" else arg for arg in SUBCOMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, *option.split()])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {unrecognized}\n")


@pytest.mark.parametrize("option", ["--sk", "--skip", "--o"])
def test_cli_refuses_option_prefixes(tmp_path, capsys, option):
    """An option is read only by its full name: a prefix of --skip-model or
    --out is unrecognized, not taken for the option."""
    from cosetprog.cli import main
    from cosetprog.textio import write_group_set

    set_file = tmp_path / "a.txt"
    set_file.write_text(write_group_set(_interval(GroupSpec((8,)), 3)))
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", str(set_file), option])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {option}\n")


def _above_the_cap():
    """Ten points of Z/2^21, a group one doubling past the enumeration cap."""
    spec = GroupSpec((1 << 21,))
    assert spec.cardinality == 2 * ENUMERATION_CAP
    return GroupSet.from_coords(spec, [(3 * i,) for i in range(10)])


@pytest.mark.parametrize("skip_model", [False, True], ids=["model-on", "skip-model"])
def test_pipeline_refuses_a_group_above_the_cap(skip_model):
    with pytest.raises(ResourceLimitError, match="exceeds enumeration cap 1048576$"):
        run_pipeline(_above_the_cap(), PipelineConfig(skip_model=skip_model))


def test_cli_pipeline_above_the_cap_exit_two(tmp_path, capsys):
    from cosetprog.cli import main
    from cosetprog.textio import write_group_set

    set_file = tmp_path / "a.txt"
    set_file.write_text(write_group_set(_above_the_cap()))
    assert main(["pipeline", str(set_file)]) == 2
    assert capsys.readouterr().err == (
        "error: group of size 2097152 exceeds enumeration cap 1048576\n"
    )


def test_cli_cover_prints_a_bound_past_the_digit_limit(tmp_path, capsys):
    """A cover_size bound 2^d (K^4/eta)^ceil(5K) |A| with more than the 4300
    digits str() converts is printed exactly."""
    from cosetprog.cli import main

    main(["gen", "random", "--orders", "131072", "--size", "180", "--seed", "1"])
    (tmp_path / "a.txt").write_text(capsys.readouterr().out)
    (tmp_path / "p.txt").write_text("group 131072\nbase 0\nsubgroup\nproper 1\n")
    assert main(["cover", str(tmp_path / "a.txt"), str(tmp_path / "p.txt")]) in (0, 1)
    out, err = capsys.readouterr()
    assert err == ""
    bound = next(line for line in out.splitlines() if line.startswith("check cover_size "))
    assert len(bound.split()[-1]) > 4300


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


@pytest.mark.parametrize("option", [
    ["random", "--orders", "x", "--size", "1"],
    ["progression", "--orders", "8", "--generator", "1 x", "--lengths", "3"],
    ["progression", "--orders", "8", "--generator", "1", "--lengths", "x"],
    ["counterexample", "--primes", "3,x"],
], ids=["orders", "generator", "lengths", "primes"])
def test_cli_gen_malformed_list_option_exit_two(capsys, option):
    from cosetprog.cli import main

    assert main(["gen", *option]) == 2
    assert capsys.readouterr().err == "error: malformed integer token 'x'\n"


@pytest.mark.parametrize("option", [
    ["random", "--orders", "8"],
    ["random-in-progression", "--orders", "64", "--generator", "1", "--lengths", "10"],
], ids=["random", "random-in-progression"])
def test_cli_gen_negative_size_exit_two(capsys, option):
    from cosetprog.cli import main

    assert main(["gen", *option, "--size", "-1"]) == 2
    assert capsys.readouterr().err == "error: sample size must be at least 0, got -1\n"


@pytest.mark.parametrize("option", [
    ["random", "--orders", "8"],
    ["random-in-progression", "--orders", "8", "--generator", "1", "--lengths", "4"],
], ids=["random", "random-in-progression"])
def test_cli_gen_empty_draw_is_an_empty_set(capsys, option):
    from cosetprog.cli import main

    assert main(["gen", *option, "--size", "0"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("group 8\n", "")
    assert not read_group_set(out)


@pytest.mark.parametrize("values, code, modulus", [
    ([10**30, 10**30 + 1, 10**30 + 3], 0, 7),
    ([0, 3, 2**60 + 2, 2**60 + 3], 0, 24),
    ([0, 2**62], 2, None),
], ids=["past-int64", "host-past-2^62", "wide-span"])
def test_cli_zmodel_past_int64(tmp_path, capsys, values, code, modulus):
    from cosetprog.cli import main

    set_file = tmp_path / "z.txt"
    set_file.write_text("".join(f"{v}\n" for v in values))
    assert main(["zmodel", str(set_file)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.startswith(f"modulus {modulus}\n") and err == ""
    else:
        assert err.startswith(f"error: the integer set spans {2**62};")


@pytest.fixture(scope="module")
def model_on_certificate():
    """A model-on certificate holding every section kind: a stage, minima,
    two covering rounds (r0, r1, s0)."""
    cert = run_pipeline(_interval(GroupSpec((300,)), 5), PipelineConfig())
    assert cert.model.stages and cert.cover.s_sets
    return cert, write_certificate(cert)


def _drop(*words):
    return lambda line: " ".join(t for t in line.split() if t not in words)


# (first line starting with, corruption of that line); a prefix "name/key "
# is the first line starting with "key " inside section name
CORRUPTIONS = {
    "elem-token": ("elem ", lambda line: "elem x"),
    "t-token": ("t ", lambda line: "t y"),
    "skip-model-two": ("skip-model ", lambda line: "skip-model 2"),
    "skip-model-token": ("skip-model ", lambda line: "skip-model x"),
    # the run writes no stage when the model is skipped
    "skip-model-with-stages": ("skip-model ", lambda line: "skip-model 1"),
    "q-proper-two": ("q/proper ", lambda line: "proper 2"),
    "l4-sum-token": ("l4-sum ", lambda line: "l4-sum nan-ish"),
    "key-without-value": ("mk ", lambda line: "mk"),
    "short-check": ("check ", lambda line: " ".join(line.split()[:2])),
    "minimum-without-markers": ("minimum ", _drop("vector", "preimage")),
    "elem-extra-coordinate": ("elem ", lambda line: line + " 2"),
    "subgroup-size": ("subgroup-size ", lambda line: f"subgroup-size {int(line.split()[1]) + 1}"),
    "minimum-zero": ("minimum ", lambda line: "minimum 0 " + line.split(" ", 2)[2]),
    "gen-short": ("gen ", lambda line: line.rsplit(" ", 1)[0]),
    "gamma-token": ("gamma ", lambda line: "gamma x"),
    "gamma-extra-coordinate": ("gamma ", lambda line: line + " 0"),
    "interval-one-value": ("interval ", lambda line: line.rsplit(" ", 1)[0]),
    # a wrong keyword in phi's first row (the certificate's first char line),
    # or a wrong keyword or a missing coordinate in a row appended to phi,
    # stripped or the minima subgroup
    "phi-first-row-keyword": ("char ", lambda line: "zzz" + line[len("char"):]),
    "phi-keyword": ("begin phi", lambda line: line + "\nelem 1"),
    "phi-missing-coordinate": ("begin phi", lambda line: line + "\nchar"),
    "stripped-keyword": ("begin stripped", lambda line: line + "\nelem 0"),
    "stripped-missing-coordinate": ("begin stripped", lambda line: line + "\nchar"),
    "subgroup-keyword": ("begin subgroup", lambda line: line + "\nchar 0"),
    "subgroup-missing-coordinate": ("begin subgroup", lambda line: line + "\nelem"),
}


@pytest.mark.parametrize(
    "prefix, corrupt", CORRUPTIONS.values(), ids=list(CORRUPTIONS)
)
def test_cli_verify_malformed_certificate_exit_two(
    tmp_path, capsys, model_on_certificate, prefix, corrupt
):
    from cosetprog.cli import main

    lines = model_on_certificate[1].splitlines()
    section, _, prefix = prefix.rpartition("/")
    start = lines.index(f"begin {section}") if section else 0
    i = next(i for i in range(start, len(lines)) if lines[i].startswith(prefix))
    bad = corrupt(lines[i])
    assert bad != lines[i]
    lines[i] = bad
    text = "\n".join(lines) + "\n"
    with pytest.raises(DomainError):
        read_certificate(text)
    path = tmp_path / "cert.txt"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_reader_ignores_the_retired_config_keys(model_on_certificate):
    """A certificate that still holds the s, tolerance, log-base,
    target-density, delta and cap lines of the options the pipeline no longer
    has, or the gamma-raw section that listed the threshold set, reads,
    verifies and is written back without them.  The section is not read at
    all: one of its magnitudes is wrong."""
    cert, text = model_on_certificate
    assert not re.search(r"\n(s|tolerance|log-base|target-density|delta|cap) ", text)
    assert "gamma-raw" not in text
    raw = fourier.bogolyubov_bohr(cert.model.final_set).gamma_raw
    rows = [f"char {' '.join(map(str, g.coords))} {m:.12g}"
            for g, m in zip(raw.chars, raw.magnitudes)]
    rows[0] = rows[0].rsplit(" ", 1)[0] + f" {2 * raw.magnitudes[0]:.12g}"
    gamma_raw = "\n".join(["begin gamma-raw", *rows, "end gamma-raw"])
    olds = (
        text.replace(
            "\nskip-model 0\n",
            "\ns 8\nskip-model 0\ntolerance 1e-09\nlog-base e\n"
            "target-density 1\ndelta none\ncap 99\n",
        ),
        text.replace("\nbegin phi\n", f"\n{gamma_raw}\nbegin phi\n"),
    )
    for old in olds:
        assert old != text
        back = read_certificate(old)
        assert verify_certificate(back).ok
        assert write_certificate(back) == text


def test_verify_judges_a_log_base_2_certificate_under_the_natural_log(model_on_certificate):
    """A certificate written with the retired log base 2 stored
    dim-bound = 8 K log2(1/alpha); the natural log derives another value, so
    verify names it, although the config line itself is not read."""
    cert, text = model_on_certificate
    stored = f"\ndim-bound {fmt_float(cert.dim_bound)}\n"
    assert stored in text and cert.dim_bound > 0
    old = text.replace("\nskip-model 0\n", "\nskip-model 0\nlog-base 2\n").replace(
        stored, f"\ndim-bound {fmt_float(cert.dim_bound / math.log(2))}\n"
    )
    back = read_certificate(old)
    assert back.dim_bound == pytest.approx(cert.dim_bound / math.log(2))
    failed = [(e.name, e.detail) for e in verify_certificate(back).failures()]
    assert failed == [(
        "stored_value",
        f"bogolyubov: stored 'dim-bound {fmt_float(back.dim_bound)}', "
        f"derived 'dim-bound {fmt_float(cert.dim_bound)}'",
    )]


def _ints(values):
    return " ".join(map(str, values))


def _parent_format(cert, text):
    """``text`` as the older format wrote it: each stage also holds its kind,
    its translation and its map, and a transport section holds the map the
    chain induces on 2A' - 2A'."""
    from cosetprog import induced_difference_iso

    def map_lines(phi, order):
        src, tgt = phi.domain.spec, phi.target
        pairs = zip(phi.domain.indices.tolist(), phi.images.tolist())
        return ["begin map", f"source {_ints(src.orders)}", f"target {_ints(tgt.orders)}",
                f"order {order}",
                *(f"pair {_ints(src.coords_of(x))} -> {_ints(tgt.coords_of(y))}"
                  for x, y in pairs),
                "end map"]

    for stage in cert.model.stages:
        spec = stage.gamma.spec
        choice = [f"gamma {_ints(stage.gamma.coords)}", f"q {stage.q}",
                  f"interval {_ints(stage.interval)}"]
        psi = stage.gamma.arg_numerators(spec.decode(np.arange(spec.cardinality)))
        shift = spec.coords_of(int(np.flatnonzero(psi == stage.interval[0])[0]))
        new = ["begin stage", f"group {_ints(spec.orders)}", *choice, "end stage"]
        old = ["begin stage", "kind spectral", *choice, f"translation {_ints(shift)}",
               *map_lines(stage.map, 8), "end stage"]
        text = text.replace("\n".join(new), "\n".join(old), 1)
    transport = ["begin transport", "identity 0",
                 *map_lines(induced_difference_iso(cert.model.composite.inverse()), 2),
                 "end transport"]
    transport = "\n".join(transport)
    return text.replace("\nbegin progression\n", f"\n{transport}\nbegin progression\n")


def test_reader_ignores_the_parent_stage_and_transport_lines(model_on_certificate):
    """A certificate in the older format reads, verifies and is written back
    in the new one.  Of its stages' kind, translation and map lines and its
    transport section, only a map's source line is read, for the group of a
    stage with no group line: a translation, a map order and a pair changed
    by hand change nothing."""
    cert, text = model_on_certificate
    old = _parent_format(cert, text)
    assert "\nbegin transport\n" in old and "\nkind spectral\ngamma " in old
    for key, value in (("translation", "299"), ("order", "1000"), ("pair", "0 -> 1 1")):
        start = old.index(f"\n{key} ") + 1
        end = old.index("\n", start)
        old = old[:start] + f"{key} {value}" + old[end:]
    assert old.count("\norder 1000\n") == 1
    back = read_certificate(old)
    assert verify_certificate(back).ok
    assert write_certificate(back) == text


def test_certificates_store_each_stage_as_its_choice(zoo_certificates):
    """No certificate holds a map: a stage section is its group, gamma, q and
    interval lines, and there is no transport section."""
    for cert, text in zoo_certificates:
        keys = {line.split()[0] for line in text.splitlines()}
        assert not keys & {"pair", "translation", "kind", "source", "target", "order"}
        names = [name for name, _ in _sections(text)]
        assert "transport" not in names and "map" not in names
        stages = [body for name, body in _sections(text) if name == "stage"]
        assert len(stages) == len(cert.model.stages)
        for body in stages:
            keys = [row.split()[0] for row in body.splitlines()]
            assert keys == ["group", "gamma", "q", "interval"]


def _bump(position):
    """Change the token at ``position``: an integer or fraction numerator
    grows by one, a float doubles."""

    def corrupt(line):
        tokens = line.split()
        num, slash, den = tokens[position].partition("/")
        if slash or num.lstrip("-").isdigit():
            tokens[position] = f"{int(num) + 1}{slash}{den}"
        else:
            tokens[position] = repr(2 * float(num))
        return " ".join(tokens)

    return corrupt


def _flip_flag(line):
    key, value = line.split()
    return f"{key} {1 - int(value)}"


# (innermost section, first key in it, corruption, open sections named by verify)
TAMPERS = {
    "q-size": ("cover", "q-size", _bump(-1), "cover"),
    "final-size": ("summary", "final-size", _bump(-1), "summary"),
    "size-ratio": ("summary", "size-ratio", _bump(-1), "summary"),
    "model-density": ("summary", "model-density", _bump(-1), "summary"),
    "det": ("minima", "det", _bump(-1), "minima"),
    "denominator": ("minima", "denominator", _bump(-1), "minima"),
    "check-lhs": ("checks", "check", _bump(3), "checks"),
    "check-rhs": ("checks", "check", _bump(4), "checks"),
    "q-proper": ("q", "proper", _flip_flag, "cover/q"),
    "density-bound": ("model", "density-bound", _bump(-1), "model"),
    "density-final": ("model", "density-final", _bump(-1), "model"),
    "l4-sum": ("bogolyubov", "l4-sum", _bump(-1), "bogolyubov"),
    "l4-lower": ("bogolyubov", "l4-lower", _bump(-1), "bogolyubov"),
    "dim-bound": ("bogolyubov", "dim-bound", _bump(-1), "bogolyubov"),
    "radius-lower": ("bogolyubov", "radius-lower", _bump(-1), "bogolyubov"),
    "alpha": ("bogolyubov", "alpha", _bump(-1), "bogolyubov"),
    "mk": ("cover", "mk", _bump(-1), "cover"),
}


def _tamper(text, section, key, corrupt):
    lines = text.splitlines()
    stack = []
    for i, line in enumerate(lines):
        if line.startswith("begin "):
            stack.append(line[len("begin "):])
        elif line.startswith("end "):
            stack.pop()
        elif stack and stack[-1] == section and line.split()[0] == key:
            lines[i] = corrupt(line)
            assert lines[i] != line
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no {key!r} line in section {section!r}")


def test_every_stage_token_rewrite_is_refused_or_says_the_same():
    """Each integer token of each stage of a 4-stage chain, moved by +-1, is
    a DomainError at read or a failing report, or it verifies because the
    rewritten gamma takes the same values on the stage's set; nothing else
    is raised.  None verifies: a gamma moved on a coordinate where the
    stage's set is zero takes the same values on the set, but has another
    kernel, whose Smith basis gives the set other model coordinates, on
    which a later stage's choice no longer holds."""
    spec = GroupSpec((2,) * 8)
    axes = [[int(j == i) for j in range(8)] for i in range(4)]
    cert = run_pipeline(gen_random_in_progression(spec, [0] * 8, axes, [2] * 4, 10, seed=3))
    assert len(cert.model.stages) == 4 and cert.all_passed
    lines = write_certificate(cert).splitlines()

    def values(gamma, stage):
        q = gamma.order()
        return [Fraction(n, q) for n in gamma.arg_numerators(stage.set_before.coords()).tolist()]

    stage_of, k = {}, -1
    for i, line in enumerate(lines):
        if line == "begin stage":
            k, start = k + 1, i
        elif line == "end stage":
            stage_of.update((j, k) for j in range(start + 1, i))
    outcomes = {"read": 0, "fail": 0, "same": 0}
    for i, k in sorted(stage_of.items()):
        original = cert.model.stages[k]
        tokens = lines[i].split()
        for pos in range(1, len(tokens)):
            for step in (-1, 1):
                moved = tokens[:pos] + [str(int(tokens[pos]) + step)] + tokens[pos + 1:]
                text = "\n".join(lines[:i] + [" ".join(moved)] + lines[i + 1:]) + "\n"
                where = f"stage {k}: {lines[i]!r} -> {' '.join(moved)!r}"
                try:
                    back = read_certificate(text)
                except DomainError:
                    outcomes["read"] += 1
                    continue
                if not verify_certificate(back).ok:
                    outcomes["fail"] += 1
                    continue
                gamma = back.model.stages[k].gamma
                assert tokens[0] == "gamma", where
                assert values(gamma, original) == values(original.gamma, original), where
                outcomes["same"] += 1
    assert sum(outcomes.values()) == 2 * sum(len(lines[i].split()) - 1 for i in stage_of)
    assert outcomes["same"] == 0, outcomes


def _subgroup_rows(lines):
    """The indices of the elem rows that list a subgroup: those of a
    ``subgroup`` section, and those between a progression's ``subgroup``
    and ``proper`` lines."""
    rows, stack, listing = [], [], False
    for i, line in enumerate(lines):
        if line.startswith("begin "):
            stack.append(line[len("begin "):])
        elif line.startswith("end "):
            stack.pop()
        elif line == "subgroup":
            listing = True
        elif line.startswith("proper "):
            listing = False
        elif line.startswith("elem ") and (listing or stack[-1] == "subgroup"):
            rows.append(i)
    return rows


@pytest.mark.parametrize("a, config", [
    (gen_subgroup(GroupSpec((12, 12)), [[1, 0]]), PipelineConfig()),
    (GroupSet.from_coords(GroupSpec((4, 4, 4)), [(0, 0, 0), (1, 0, 2), (2, 0, 0), (3, 0, 2)]),
     PipelineConfig(skip_model=True)),
], ids=["model-on", "skip-model"])
def test_every_subgroup_token_rewrite_is_refused(a, config):
    """Each coordinate of each subgroup generator (minima/subgroup,
    progression-model, progression and cover/q), moved by +-1, is a
    DomainError at read or a failing report: the reader closes whatever
    generators it is given, and nothing else is raised or verifies."""
    lines = write_certificate(run_pipeline(a, config)).splitlines()
    rows = _subgroup_rows(lines)
    paths = {_open_sections(lines[:i]) for i in rows}
    assert paths == ({"progression-model", "progression", "cover/q"} if not config.skip_model
                     else {"minima/subgroup", "progression-model", "progression", "cover/q"})
    outcomes = {"read": 0, "fail": 0}
    for i in rows:
        tokens = lines[i].split()
        for pos in range(1, len(tokens)):
            for step in (-1, 1):
                moved = tokens[:pos] + [str(int(tokens[pos]) + step)] + tokens[pos + 1:]
                text = "\n".join(lines[:i] + [" ".join(moved)] + lines[i + 1:]) + "\n"
                try:
                    back = read_certificate(text)
                except DomainError:
                    outcomes["read"] += 1
                    continue
                assert not verify_certificate(back).ok, f"{lines[i]!r} -> {' '.join(moved)!r}"
                outcomes["fail"] += 1
    assert sum(outcomes.values()) == 2 * sum(len(lines[i].split()) - 1 for i in rows) > 0


@pytest.mark.parametrize(
    "section, key, corrupt, path", TAMPERS.values(), ids=list(TAMPERS)
)
def test_verify_rejects_each_tampered_derived_field(
    model_on_certificate, section, key, corrupt, path
):
    """Verify names the sections open at the tampered line and quotes it,
    as the reader's certificate writes it back, next to the line it derives."""
    clean = model_on_certificate[1]
    back = read_certificate(_tamper(clean, section, key, corrupt))
    (derived, stored), = [
        pair for pair in zip(clean.splitlines(), write_certificate(back).splitlines())
        if pair[0] != pair[1]
    ]
    report = verify_certificate(back)
    assert not report.ok
    details = [e.detail for e in report.failures() if e.name == "stored_value"]
    assert f"{path}: stored {stored!r}, derived {derived!r}" in details, details


def test_verify_names_a_dropped_check_line(model_on_certificate):
    """A run with no line on one side quotes '' for that side."""
    text = model_on_certificate[1]
    line = next(row for row in text.splitlines() if row.startswith("check bohr_containment "))
    back = read_certificate(text.replace(f"\n{line}\n", "\n"))
    details = [e.detail for e in verify_certificate(back).failures() if e.name == "stored_value"]
    assert details == [f"checks: stored '', derived {line!r}"]


def test_verify_derives_the_model_set_from_the_stages(model_on_certificate):
    """The model set is the derived chain's final set: a stored one with an
    element dropped is one stored value that differs, and every value
    derived from the model set is derived from the chain's."""
    lines = model_on_certificate[1].splitlines()
    end = lines.index("end model-set")
    assert lines[end - 1] == "elem 4"
    del lines[end - 1]
    failed = [(e.name, e.detail)
              for e in verify_certificate(read_certificate("\n".join(lines) + "\n")).failures()]
    assert failed == [("stored_value", "model/model-set: stored '', derived 'elem 4'")]


def _f2_five_without_zero():
    g = GroupSpec((2,) * 5)
    return GroupSet(g, np.arange(1, g.cardinality, dtype=np.int64))


@pytest.mark.parametrize("skip_model", [False, True])
def test_verify_recomputes_a_failing_check(skip_model):
    # with every minimum a thousand times larger, their product exceeds
    # det: verify judges bohr_minkowski on the minima, a search choice,
    # whatever its stored line says
    cert = run_pipeline(_interval(GroupSpec((100,)), 10), PipelineConfig(skip_model=skip_model))
    assert cert.all_passed and cert.minima is not None
    text = _scale_minima(write_certificate(cert))
    flipped = text.replace("check bohr_minkowski pass", "check bohr_minkowski fail")
    assert flipped != text
    for tampered in (text, flipped):
        failed = {e.name for e in verify_certificate(read_certificate(tampered)).failures()}
        assert "bohr_minkowski" in failed


def test_spectral_radius_is_vacuous_for_an_empty_phi():
    # F_2^5 minus 0 has an empty Phi, so its Bohr set is G whatever the radius;
    # 1/(48 K log(1/alpha)) = 0.64 would exceed the radius 1/6 but is not asked
    for skip_model in (False, True):
        cert = run_pipeline(_f2_five_without_zero(), PipelineConfig(skip_model=skip_model))
        assert cert.phi == () and cert.radius_lower == 0 and cert.all_passed
        assert verify_certificate(read_certificate(write_certificate(cert))).ok


def test_cli_bohr_prints_every_check_it_judges(tmp_path, capsys):
    from cosetprog.cli import main
    from cosetprog.textio import write_group_set

    set_file = tmp_path / "a.txt"
    set_file.write_text(write_group_set(_f2_five_without_zero()))
    assert main(["bohr", str(set_file)]) == 0
    out = capsys.readouterr().out
    assert "check spectral_radius pass 0.166666666667 0\n" in out
    assert [line.split()[1] for line in out.splitlines() if line.startswith("check ")] == [
        "spectral_dimension",
        "spectral_radius",
        "fourth_moment_lower",
    ]


def test_cli_bohr_rho_checks_the_bohr_set_it_prints(tmp_path, capsys):
    # with --rho the threshold set, Phi and radius differ from the default
    # report's (here 5 characters against 4), and the checks are the shown ones
    from cosetprog.cli import main
    from cosetprog.generators import gen_random
    from cosetprog.textio import write_group_set

    set_file = tmp_path / "a.txt"
    set_file.write_text(write_group_set(gen_random(GroupSpec((64,)), 20, 3)))
    code = main(["bohr", str(set_file), "--rho", "1/8"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    values = {row[0]: row[1] for row in rows if len(row) == 2}
    checks = {row[1]: row[2:] for row in rows if row[0] == "check"}
    shown = (values["threshold-rho"], values["dissociated"], values["bohr-rho"])
    assert shown == ("0.125", "5", "1/30")
    assert checks["spectral_dimension"][1] == values["dissociated"]
    assert float(checks["spectral_radius"][1]) == pytest.approx(float(Fraction(values["bohr-rho"])))
    assert code == (1 if any(status == "fail" for status, *_ in checks.values()) else 0)


def _sections(text):
    """(name, body text) of every certificate section, in the order they end;
    a body holds the section's own lines, not those of its subsections."""
    sections, stack = [], []
    for line in text.splitlines():
        if line.startswith("begin "):
            stack.append((line[len("begin "):], []))
        elif line.startswith("end "):
            name, body = stack.pop()
            sections.append((name, "".join(row + "\n" for row in body)))
        elif stack:
            stack[-1][1].append(line)
    return sections


def _progression_key(cp):
    return (cp.spec, cp.base, cp.generators, cp.bounds, cp.subgroup, cp.proper)


def test_certificate_sections_use_the_file_formats(model_on_certificate):
    from cosetprog.textio import read_group_set, read_progression

    cert, text = model_on_certificate
    sets = {"input": cert.input_set, "model-set": cert.model.final_set}
    sets.update((f"r{i}", r) for i, r in enumerate(cert.cover.r_sets))
    sets.update((f"s{i}", s) for i, s in enumerate(cert.cover.s_sets))
    progressions = {
        "progression-model": cert.progression_model,
        "progression": cert.progression,
        "q": cert.cover.q,
    }
    stages = [
        f"group {' '.join(map(str, stage.gamma.spec.orders))}\n"
        f"gamma {' '.join(map(str, stage.gamma.coords))}\n"
        f"q {stage.q}\ninterval {stage.interval[0]} {stage.interval[1]}\n"
        for stage in cert.model.stages
    ]

    sections = _sections(text)
    got_sets = {name: read_group_set(body) for name, body in sections if name in sets}
    assert got_sets == sets
    got_progressions = {
        name: _progression_key(read_progression(body))
        for name, body in sections
        if name in progressions
    }
    assert got_progressions == {n: _progression_key(cp) for n, cp in progressions.items()}
    assert [body for name, body in sections if name == "stage"] == stages


def _zoo_certificates():
    """Certificates for every zoo set, with the model on and off."""
    return [
        run_pipeline(a, PipelineConfig(skip_model=skip_model))
        for a in zoo_sets()
        for skip_model in (False, True)
    ]


@pytest.fixture(scope="module")
def zoo_certificates():
    """(certificate, text) for every zoo set, with the model on and off."""
    return [(cert, write_certificate(cert)) for cert in _zoo_certificates()]


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


def test_certificates_ignore_transform_noise(monkeypatch, zoo_certificates):
    clean = [text for _, text in zoo_certificates]
    exact = fourier.indicator_transform
    rng = np.random.default_rng(14)

    def noisy(a):
        s = exact(a)
        noise = 1 + 1e-14 * rng.uniform(-1, 1, s.values.shape)
        return fourier.Spectrum(s.spec, s.set_size, s.values * noise)

    monkeypatch.setattr(fourier, "indicator_transform", noisy)
    monkeypatch.setattr(models, "indicator_transform", noisy)
    perturbed = [write_certificate(cert) for cert in _zoo_certificates()]
    assert len(clean) == len(perturbed) == 84
    changed = [i for i, (t, u) in enumerate(zip(clean, perturbed)) if t != u]
    assert all(_same_but_last_printed_digit(clean[i], perturbed[i]) for i in changed)

    # Under the exact transform, verify re-derives every stored check, and
    # fails a certificate only on the checks it records as failing (none of
    # the zoo's does); no stored value differs.
    monkeypatch.undo()
    for text in clean + perturbed:
        report = verify_certificate(read_certificate(text))
        checks = [line.split() for line in text.splitlines() if line.startswith("check ")]
        assert {c[1] for c in checks} <= {e.name for e in report.entries}
        failed = {e.name: e.detail for e in report.failures()}
        assert set(failed) == {c[1] for c in checks if c[2] == "fail"}, failed


def test_model_on_zoo_chains_take_one_stage_per_character(zoo_certificates):
    """Each model-on zoo chain uses a new character at every stage and shrinks
    the group at every stage; each certificate round-trips and verifies, and
    none records a failing check."""
    stored_failures = []
    for cert, text in zoo_certificates:
        if cert.config.skip_model:
            continue
        stages = cert.model.stages
        assert len(stages) <= len({stage.gamma.coords for stage in stages})
        sizes = [cert.input_set.spec.cardinality]
        sizes += [stage.set_after.spec.cardinality for stage in stages]
        assert all(before > after for before, after in zip(sizes, sizes[1:]))
        assert write_certificate(read_certificate(text)) == text
        report = verify_certificate(read_certificate(text))
        failed = {c.name for c in cert.checks if c.failed}
        assert {e.name for e in report.failures()} == failed
        stored_failures += sorted(failed)
    assert stored_failures == []


def _index_arrays(cert):
    """The index arrays of every set and subgroup a certificate holds."""
    sets = [cert.input_set, cert.model.final_set, *cert.cover.r_sets, *cert.cover.s_sets]
    subgroups = [cp.subgroup for cp in (cert.progression_model, cert.progression, cert.cover.q)]
    if cert.minima is not None:
        subgroups.append(cert.minima.subgroup)
    return [s.indices for s in sets] + [h.indices for h in subgroups]


def test_zoo_certificates_read_back_equal(zoo_certificates):
    """Reading a written certificate gives back every stored value (each
    stage's choice among them), so it is written back as the same text, and
    the same index arrays for each of its sets and subgroups."""
    for cert, text in zoo_certificates:
        back = read_certificate(text)
        assert write_certificate(back) == text
        got, want = _index_arrays(back), _index_arrays(cert)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_verify_compares_the_subgroup_generators_it_derives():
    """A stored generator of the minima subgroup H is judged as text: one
    that generates the same H but is not the one derived is a stored value
    that differs.  The set is a Z/4^3 interval of the benchmark's batch."""
    spec = GroupSpec((4, 4, 4))
    a = GroupSet.from_coords(spec, [(0, 0, 0), (1, 0, 2), (2, 0, 0), (3, 0, 2)])
    text = write_certificate(run_pipeline(a, PipelineConfig(skip_model=True)))
    bad = text.replace("\nbegin subgroup\nelem 3 0 2\nend subgroup\nsubgroup-size 4\n",
                       "\nbegin subgroup\nelem 1 0 2\nend subgroup\nsubgroup-size 4\n")
    assert bad != text
    failed = [(e.name, e.detail) for e in verify_certificate(read_certificate(bad)).failures()]
    assert failed == [
        ("stored_value", "minima/subgroup: stored 'elem 1 0 2', derived 'elem 3 0 2'")
    ]


def _rewrite_float(text, key, factor):
    """``text`` with the float on the ``key`` line multiplied by ``factor``,
    written by repr, and the stored and derived lines verify quotes."""
    old = next(line for line in text.splitlines() if line.startswith(f"{key} "))
    new = f"{key} {float(old.split()[1]) * factor!r}"
    bad = text.replace(f"\n{old}\n", f"\n{new}\n", 1)
    back = read_certificate(bad)
    stored = next(line for line in write_certificate(back).splitlines()
                  if line.startswith(f"{key} "))
    return back, stored, old


def test_verify_lets_a_float_differ_within_the_tolerance(model_on_certificate):
    back, stored, old = _rewrite_float(model_on_certificate[1], "l4-sum", 1 + 1e-11)
    assert stored != old  # the tolerance, not the 12 printed digits, lets it pass
    report = verify_certificate(back)
    assert "stored_value" not in {e.name for e in report.entries}
    assert report.ok


def test_verify_names_a_float_past_the_tolerance(model_on_certificate):
    back, stored, old = _rewrite_float(model_on_certificate[1], "l4-sum", 1 + 1e-8)
    failed = [(e.name, e.detail) for e in verify_certificate(back).failures()]
    assert failed == [("stored_value", f"bogolyubov: stored {stored!r}, derived {old!r}")]


@pytest.mark.parametrize("part", [0, 1], ids=["numerator", "denominator"])
def test_verify_compares_rational_tokens_exactly(model_on_certificate, part):
    """The cover_size bound is a long p/q: a change in the last digit of its
    numerator or denominator, far under the float tolerance, is named."""
    text = model_on_certificate[1]
    old = next(line for line in text.splitlines() if line.startswith("check cover_size "))
    *head, bound = old.split()
    digits = bound.split("/")
    assert len(digits[part]) > 15
    digits[part] = digits[part][:-1] + str((int(digits[part][-1]) + 2) % 10)
    new = " ".join([*head, "/".join(digits)])
    assert abs(parse_scalar(new.split()[-1]) / parse_scalar(bound) - 1) < 1e-9
    back = read_certificate(text.replace(f"\n{old}\n", f"\n{new}\n"))
    stored = write_certificate(back).splitlines()[text.splitlines().index(old)]
    assert stored != old
    failed = [(e.name, e.detail) for e in verify_certificate(back).failures()]
    assert failed == [("stored_value", f"checks: stored {stored!r}, derived {old!r}")]


# a token Python's int reads, or not; "" stands for a row with no coordinate
PARITY_TOKENS = ["x", "1.5", "1e3", "+3", "-0", "1_000", "\u0663", "0x10", "12", "-7", ""]


def _int_or_none(token):
    try:
        return parse_int(token)
    except DomainError:
        return None


@pytest.mark.parametrize("token", PARITY_TOKENS, ids=repr)
def test_rows_read_integer_tokens_as_int_does(token):
    """An elem and a char row accept exactly the tokens parse_int (Python's
    int) accepts, with the same value."""
    from cosetprog.textio import read_group_set

    value = _int_or_none(token)
    n = 10007
    read_elem = lambda: read_group_set(f"group {n}\nelem {token}\n").indices.tolist()
    cert = run_pipeline(_interval(GroupSpec((100,)), 10), PipelineConfig(skip_model=True))
    lines, start, _ = _phi_block(write_certificate(cert))
    lines[start + 1] = f"char {token}".rstrip()
    read_char = lambda: read_certificate("\n".join(lines) + "\n").phi[0].coords
    if value is not None:
        assert read_elem() == [value % n]
        assert read_char() == (value % 100,)
    elif token:
        for read in (read_elem, read_char):
            with pytest.raises(DomainError, match=re.escape(f"malformed integer token {token!r}")):
                read()
    else:
        with pytest.raises(DomainError, match="^element arity does not match the group: elem$"):
            read_elem()
        with pytest.raises(DomainError, match="^expected 'char' and 1 coordinate\\(s\\): char$"):
            read_char()


def _group_and_interval_edits(text):
    """(section, edited line, text) for each integer token of each ``group``
    and ``interval`` line moved by +1 and by -1."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key, *values = line.split()
        if key not in ("group", "interval"):
            continue
        for j, v in enumerate(values):
            for moved in (int(v) + 1, int(v) - 1):
                edited = " ".join([key, *values[:j], str(moved), *values[j + 1:]])
                yield _open_sections(lines[:i]), edited, "\n".join(
                    lines[:i] + [edited] + lines[i + 1:]) + "\n"


def test_every_group_and_interval_edit_reads_as_a_domain_error_or_verifies(
    model_on_certificate
):
    """An edited group line or stage interval is refused at read with a
    DomainError, or ``verify`` reports on it: nothing else is raised.  A
    progression, q, r<i> or s<i> section (and a stage-less model-set) in
    another group than the input's is refused at read, naming the section;
    a stage interval that derives a chain into another group than the
    stored model-set's fails ``model_group``."""
    skip = write_certificate(
        run_pipeline(_interval(GroupSpec((100,)), 10), PipelineConfig(skip_model=True))
    )
    outcomes = {}
    edits = 0
    for text in (model_on_certificate[1], skip):
        for section, edited, bad in _group_and_interval_edits(text):
            edits += 1
            try:
                cert = read_certificate(bad)
            except DomainError as exc:
                outcomes[section, edited, text is skip] = f"read: {exc}"
                continue
            failures = verify_certificate(cert).failures()
            assert failures, (section, edited)
            outcomes[section, edited, text is skip] = [e.name for e in failures]
    # 17 group lines and the 2 interval tokens, each moved both ways
    assert len(outcomes) == edits == 38
    on = {k[:2]: v for k, v in outcomes.items() if not k[2]}
    assert on["model/stage", "interval 0 5"] == ["model_group", "transport"]
    for section in ("progression", "cover/q", "cover/r0", "cover/r1", "cover/s0"):
        name = section.rpartition("/")[2]
        assert on[section, "group 301"] == (
            f"read: the {name} section is in Z/301, not in the input's group Z/300"
        )
    off = {k[:2]: v for k, v in outcomes.items() if k[2]}
    assert off["model/model-set", "group 101"] == (
        "read: the model-set section is in Z/101, not in the input's group Z/100"
    )
