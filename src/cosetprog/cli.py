"""Command-line surface: analyze, fourier, bohr, model, cover, pipeline, verify, gen.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import sys

from .bohr import bohr_set
from .errors import DomainError, InvariantError, ResourceLimitError, StructureError
from .fourier import (
    bogolyubov_bohr,
    bogolyubov_report,
    indicator_transform,
    max_dissociated,
    spec_threshold,
)
from .generators import (
    explore_multiple_cover_sumset,
    gen_counterexample,
    gen_progression,
    gen_random,
    gen_random_in_progression,
    gen_subgroup,
)
from .covering import CoverInput, chang_cover
from .groups import GroupSpec
from .models import MODEL_ORDER, f2_shrink, minimize_model, z_model
from .pipeline import (
    PipelineConfig,
    read_certificate,
    run_pipeline,
    verify_certificate,
    write_certificate,
)
from .sumsets import doubling
from .textio import (
    fmt_float,
    fmt_fraction,
    join_ints,
    parse_fraction,
    parse_ints,
    read_group_set,
    read_int_set,
    read_progression,
    write_group_set,
    write_progression,
    write_spectrum,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_analyze(args) -> int:
    a = read_group_set(_read(args.set))
    report = doubling(a)
    print(f"group {' '.join(str(n) for n in a.spec.orders)}")
    print(f"size {report.set_size}")
    print(f"sumset-size {report.sumset_size}")
    print(f"doubling {fmt_fraction(report.k)}")
    return 0


def _cmd_fourier(args) -> int:
    a = read_group_set(_read(args.set))
    spectrum = indicator_transform(a)
    _emit(write_spectrum(spectrum), args.out)
    return 0


def _cmd_bohr(args) -> int:
    a = read_group_set(_read(args.set))
    report = bogolyubov_bohr(a)
    shown = report
    if args.rho:
        spectrum = indicator_transform(a)
        tset = spec_threshold(spectrum, parse_fraction(args.rho))
        shown = bogolyubov_report(report.doubling, spectrum, tset, max_dissociated(tset))
    print(f"doubling {fmt_fraction(report.doubling.k)}")
    print(f"alpha {fmt_fraction(report.alpha)}")
    print(f"threshold-rho {fmt_float(shown.threshold_rho)}")
    raw = shown.gamma_raw
    for coords, mag in zip(raw.spec.decode(raw.indices).tolist(), raw.magnitudes.tolist()):
        print(f"char {join_ints(coords)} {fmt_float(mag)}")
    print(f"dissociated {len(shown.phi)}")
    print(f"bohr-rho {fmt_fraction(shown.bohr.rho)}")
    print(f"bohr-size {bohr_set(shown.bohr).size}")
    for check in shown.checks:
        print(check.line())
    return 1 if any(c.failed for c in shown.checks) else 0


def _cmd_model(args) -> int:
    a = read_group_set(_read(args.set))
    trace = minimize_model(a, MODEL_ORDER)
    print(f"s {trace.s}")
    print(f"stages {len(trace.stages)}")
    for i, stage in enumerate(trace.stages):
        before = stage.set_before.spec
        print(
            f"stage {i} group {' '.join(str(n) for n in before.orders)} "
            f"gamma {' '.join(str(c) for c in stage.gamma.coords)} "
            f"q {stage.q} interval {stage.interval[0]} {stage.interval[1]}"
        )
    print(f"density-initial {fmt_fraction(trace.density_initial)}")
    print(f"density-final {fmt_fraction(trace.density_final)}")
    print(f"density-bound {fmt_float(trace.prop_density_bound)}")
    sys.stdout.write(write_group_set(trace.final_set))
    return 0


def _cmd_zmodel(args) -> int:
    values = read_int_set(_read(args.set))
    report = z_model(values)
    print(f"modulus {report.modulus}")
    print(f"doubling {fmt_fraction(report.doubling)}")
    print(f"bound {fmt_float(report.bound_value)} within {1 if report.within_bound else 0}")
    sys.stdout.write(write_group_set(report.model))
    return 0


def _cmd_f2shrink(args) -> int:
    a = read_group_set(_read(args.set))
    trace = f2_shrink(a)
    print(f"stages {len(trace.stages)}")
    for i, stage in enumerate(trace.stages):
        print(
            f"stage {i} group {' '.join(str(n) for n in stage.set_before.spec.orders)}"
            f" -> {' '.join(str(n) for n in stage.set_after.spec.orders)}"
        )
    sys.stdout.write(write_group_set(trace.final_set))
    return 0


def _cmd_cover(args) -> int:
    a = read_group_set(_read(args.set))
    cp = read_progression(_read(args.progression))
    trace = chang_cover(CoverInput.build(a, cp))
    print(f"mk {trace.mk}")
    print(f"t {trace.t}")
    print(f"eta {fmt_fraction(trace.input.eta)}")
    for check in trace.checks:
        print(check.line())
    sys.stdout.write(write_progression(trace.q))
    return 0 if trace.all_passed else 1


def _cmd_pipeline(args) -> int:
    a = read_group_set(_read(args.set))
    cert = run_pipeline(a, PipelineConfig(skip_model=args.skip_model))
    _emit(write_certificate(cert), args.out)
    return 0 if cert.all_passed else 1


def _cmd_verify(args) -> int:
    cert = read_certificate(_read(args.certificate))
    report = verify_certificate(cert)
    for entry in report.entries:
        status = "pass" if entry.ok else "fail"
        detail = f" {entry.detail}" if entry.detail else ""
        print(f"check {entry.name} {status}{detail}")
    print(f"verified {1 if report.ok else 0}")
    return 0 if report.ok else 1


def _parse_int_list(token: str) -> list[int]:
    """The integers of a list option, split at commas and spaces; a token
    that is not one is a DomainError."""
    return list(parse_ints(token.replace(",", " ").split()))


def _cmd_gen(args) -> int:
    if args.family == "counterexample":
        report = gen_counterexample(_parse_int_list(args.primes), args.q)
        print(f"# size {report.size} sumset {report.sumset_size} "
              f"doubling {fmt_fraction(report.doubling)}")
        sys.stdout.write(write_group_set(report.set))
        return 0
    orders = _parse_int_list(args.orders)
    family = args.family
    if family != "random":
        generators = [_parse_int_list(tok) for tok in args.generator or []]
    if family in {"progression", "random-in-progression"}:
        lengths = _parse_int_list(args.lengths)
    spec = GroupSpec(tuple(orders))
    if family == "random":
        out = gen_random(spec, args.size, args.seed)
    elif family == "subgroup":
        out = gen_subgroup(spec, generators)
    elif family == "progression":
        out = gen_progression(spec, [0] * len(orders), generators, lengths)
    else:
        out = gen_random_in_progression(
            spec, [0] * len(orders), generators, lengths, args.size, args.seed
        )
    if out:  # an empty draw has no doubling
        print(f"# doubling {fmt_fraction(doubling(out).k)}")
    sys.stdout.write(write_group_set(out))
    return 0


def _cmd_explore(args) -> int:
    report = explore_multiple_cover_sumset(args.p, args.x, args.seed)
    print(f"primes {' '.join(str(p) for p in report.primes)}")
    print(f"mode {report.mode}")
    print(f"evaluated {report.evaluated}")
    print(f"best {report.best_size}")
    for prime, lam in report.witness:
        print(f"choice {prime} {lam}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetprog",
        description="Structure certificates for small-doubling sets in finite abelian groups",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", allow_abbrev=False, help="set size, sumset size, doubling constant")
    p.add_argument("set")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fourier", allow_abbrev=False, help="dump the full spectrum of the indicator")
    p.add_argument("set")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("bohr", allow_abbrev=False, help="spectral Bohr localization of 2A-2A")
    p.add_argument("set")
    p.add_argument("--rho", help="override the spectrum threshold (fraction)")
    p.set_defaults(func=_cmd_bohr)

    p = sub.add_parser("model", allow_abbrev=False, help="shrink the ambient group around the set")
    p.add_argument("set")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("zmodel", allow_abbrev=False, help="model an integer set in the smallest Z/m")
    p.add_argument("set", help="file of integers, one per line")
    p.set_defaults(func=_cmd_zmodel)

    p = sub.add_parser("f2shrink", allow_abbrev=False, help="shrink a set in a two-torsion group")
    p.add_argument("set")
    p.set_defaults(func=_cmd_f2shrink)

    p = sub.add_parser("cover", allow_abbrev=False, help="cover the set by a progression in 2A-2A")
    p.add_argument("set")
    p.add_argument("progression")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("pipeline", allow_abbrev=False, help="end-to-end run with certificate output")
    p.add_argument("set")
    p.add_argument("--skip-model", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", allow_abbrev=False, help="independently re-check a certificate")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", allow_abbrev=False, help="emit a deterministic instance family")
    p.add_argument("family", choices=[
        "random", "progression", "subgroup", "random-in-progression",
        "counterexample",
    ])
    p.add_argument("--orders", default="", help="cyclic orders, e.g. '8 3'")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--generator", action="append",
                   help="generator coordinates (repeatable)")
    p.add_argument("--lengths", default="", help="progression lengths")
    p.add_argument("--primes", default="", help="counterexample primes")
    p.add_argument("--q", type=int, default=5, help="counterexample modulus")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("explore", allow_abbrev=False, help="search small |S+S| over prime multiples")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_explore)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, StructureError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
