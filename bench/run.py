"""Certify/verify benchmark for cosetprog.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/`` directory.  A single process runs closed-loop passes: each pass
certifies (``run_pipeline`` + ``write_certificate``) and then verifies
(``read_certificate`` + ``verify_certificate``) every instance of the
workload, one at a time, and checks every certificate it produced.
Passes repeat while one more, as long as the average so far, still ends
within ``--seconds`` (at least two).

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times, call counts and counters; spans go to ``bench/out/``.

Text lines describe the run; the last line of standard output is one JSON
object.  The exit code is 1 when a correctness gate fails.  Instances the
library cannot certify are counted as failures, not errors.  See
bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
FAIL_KINDS = ("ResourceLimitError", "InvariantError", "spectral_radius")


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable core count; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    return nproc


def usage_error(message: str) -> SystemExit:
    print(f"bench: {message}", file=sys.stderr)
    return SystemExit(2)


def load_library():
    init = SRC / "cosetprog" / "__init__.py"
    if not init.is_file():
        raise usage_error(f"{init.relative_to(ROOT)} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import cosetprog

    if Path(cosetprog.__file__).resolve() != init.resolve():
        raise usage_error(f"imported cosetprog from {cosetprog.__file__}, not {init}")
    return cosetprog


def inputs_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(repr((inst.label, inst.a.spec.orders, inst.config)).encode())
        h.update(inst.a.indices.tobytes())
    return h.hexdigest()


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("cosetprog/*.py"), *(ROOT / "bench").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time a cold import plus instance generation."""
    start = time.perf_counter()
    load_library()
    from workloads import WORKLOADS

    instances = WORKLOADS[workload](seed)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "inputs": inputs_digest(instances)}))


def measure_setup(workload: str, seed: int) -> tuple[list[float], set[str]]:
    times, digests = [], set()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        digests.add(probe["inputs"])
    return times, digests


@dataclass
class PassResult:
    certify_s: list = field(default_factory=list)  # per instance, seconds
    verify_s: list = field(default_factory=list)  # per instance; 0 if nothing to verify
    kinds: list = field(default_factory=list)  # per instance: None or failure kind
    gate_failures: list = field(default_factory=list)
    first_errors: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def failed(self) -> int:
        return sum(k is not None for k in self.kinds)


def run_pass(lib, instances, tracer=None) -> PassResult:
    from gates import containment_gates

    res = PassResult()
    h = hashlib.sha256()
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = i
        h.update(inst.label.encode() + b"\n")
        res.verify_s.append(0.0)
        t0 = time.perf_counter()
        try:
            cert = lib.run_pipeline(inst.a, inst.config)
            text = lib.write_certificate(cert)
        except Exception as exc:  # an instance that raises is a failure, never an abort
            res.certify_s.append(time.perf_counter() - t0)
            kind = type(exc).__name__
            res.kinds.append(kind)
            res.first_errors.setdefault(kind, f"{inst.label}: {exc}")
            h.update(f"raise {kind}\n".encode())
            continue
        t1 = time.perf_counter()
        res.certify_s.append(t1 - t0)
        h.update(text.encode())

        gates = []
        try:
            reread = lib.read_certificate(text)
            report = lib.verify_certificate(reread)
        except Exception as exc:  # the program cannot read back its own output
            res.verify_s[-1] = time.perf_counter() - t1
            gates.append(f"verify_raised_{type(exc).__name__}")
        else:
            res.verify_s[-1] = time.perf_counter() - t1
            if report.ok != cert.all_passed:
                gates.append("verify_agrees")
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                if lib.write_certificate(reread) != text:
                    gates.append("round_trip")
        try:
            gates += containment_gates(text)
        except (KeyError, StopIteration, ValueError) as exc:
            gates.append(f"q_plus_h_unreadable_{type(exc).__name__}")

        failing_checks = [c.name for c in cert.checks if c.failed]
        if failing_checks:
            kind = failing_checks[0]
            res.first_errors.setdefault(kind, inst.label)
        elif gates:
            kind = "gate." + gates[0]
        else:
            kind = None
        res.kinds.append(kind)
        res.gate_failures += [f"{inst.label}: {g}" for g in gates]
    res.digest = h.hexdigest()
    return res


def check_record(name: str, record: dict) -> list[str]:
    """Compare with an earlier run of the same code and seed; keep the union."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    problems = []
    if path.is_file():
        old = json.loads(path.read_text())
        if old.get("code") == record["code"]:
            for key in sorted(set(old) & set(record)):
                if old[key] != record[key]:
                    problems.append(f"{key} differs from an earlier run of the same code and seed")
            record = {**old, **record}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return problems


def fail_counts(kinds) -> Counter:
    return Counter(k for k in kinds if k is not None)


def line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name:<44} {text:>14} {unit:<6} {note}".rstrip())


def end_to_end(args, lib, instances, problems) -> tuple[dict, dict, int, int]:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or fits_another(start, len(passes), args.seconds):
        passes.append(run_pass(lib, instances))
    return summarize(passes, passes, problems)


def fits_another(start: float, done: int, seconds: float) -> bool:
    """Whether, after ``done`` rounds since ``start``, one more of their
    average length still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def per_pass(passes, attr: str) -> float:
    """Seconds per pass: the sum over instances of each one's median time.

    Per-instance medians keep a stall during one instance of one pass out
    of the figure, where a median of pass totals would still carry it.
    """
    per_instance = zip(*(getattr(p, attr) for p in passes))
    return sum(statistics.median(times) for times in per_instance)


def summarize(timed, passes, problems) -> tuple[dict, dict, int, int]:
    """Check that passes agree, print their outcome, take medians over ``timed``."""
    first = passes[0]
    if any(p.digest != first.digest or p.kinds != first.kinds for p in passes):
        problems.append("certificates or outcomes differ between passes")
    for p in passes:
        problems += p.gate_failures
    n = len(first.kinds)
    certify = per_pass(timed, "certify_s")
    verify = per_pass(timed, "verify_s")
    failures = fail_counts(first.kinds)
    line("passes", len(timed), "", f"timed, {n} instances each")
    line("certify_s", certify, "s", "per pass: run_pipeline + write_certificate")
    line("verify_s", verify, "s", "per pass: read_certificate + verify_certificate")
    line("fail_frac", first.failed / n, "fraction", f"{first.failed} of {n} instances fail")
    for kind, count in sorted(failures.items()):
        line(f"fail.{kind}", count, "count", first.first_errors.get(kind, "")[:120])
    line("certificate_digest", first.digest[:16], "", "sha256 over the pass's certificate texts")
    metrics = {
        "certify_s": (certify, "s"),
        "verify_s": (verify, "s"),
        "pass_frac": ((n - first.failed) / n, "fraction"),
    }
    record = {"certificates": first.digest, "failures": dict(sorted(failures.items()))}
    return metrics, record, n * len(passes), sum(p.failed for p in passes)


def layer_self_times(spans) -> Counter:
    """Self seconds per (certify|verify, layer), from one pass's spans."""
    child = Counter()
    for _, _, t0, t1, parent, _ in spans:
        child[parent] += t1 - t0
    name_of = {span[0]: span[1] for span in spans}
    parent_of = {span[0]: span[4] for span in spans}
    out = Counter()
    for span_id, name, t0, t1, parent, _ in spans:
        root = span_id
        while parent_of[root] >= 0:
            root = parent_of[root]
        certify = name_of[root] in ("pipeline.run_pipeline", "pipeline.write_certificate")
        out["certify" if certify else "verify", name.split(".")[0]] += t1 - t0 - child[span_id]
    return out


def per_layer(args, lib, instances, problems) -> tuple[dict, dict, int, int]:
    from tracing import COUNTERS, SPAN_NAMES, Tracer

    tracer = Tracer()
    tracer.install()
    untraced, traced, snapshots = [], [], []
    start = time.perf_counter()
    try:
        while len(traced) < MIN_TRACED_PASSES or fits_another(start, len(traced), args.seconds):
            # alternate which kind of pass goes first, so warm-up and drift
            # do not land on one side of the overhead figure
            for kind in ("untraced", "traced")[:: 1 if len(traced) % 2 == 0 else -1]:
                if kind == "untraced":
                    untraced.append(run_pass(lib, instances))
                    continue
                tracer.reset()
                tracer.active = True
                traced.append(run_pass(lib, instances, tracer))
                tracer.active = False
                tracer.keep_spans = False
                snapshots.append((dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts)))
    finally:
        tracer.active = False
        tracer.uninstall()

    problems += tracer.errors
    _, calls, counts = snapshots[0]
    if any(s[1] != calls or s[2] != counts for s in snapshots):
        problems.append("calls or counters differ between traced passes of one run")
    _, record, attempted, failed = summarize(untraced, untraced + traced, problems)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (statistics.median(s[0].get(name, 0.0) for s in snapshots), "s")
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in COUNTERS:
        metrics[name] = (counts.get(name, 0), "count")
    tests, lifts = counts.get("fourier.phi_tests", 0), counts.get("bohr.lift_rows", 0)
    metrics["fourier.phi_accept_ratio"] = (
        counts.get("fourier.phi_size", 0) / tests if tests else 0.0, "ratio")
    metrics["bohr.minima_pick_ratio"] = (
        counts.get("bohr.minima_dim", 0) / lifts if lifts else 0.0, "ratio")
    kinds = fail_counts(traced[0].kinds)
    for kind in FAIL_KINDS:
        metrics[f"fail.{kind}"] = (kinds.get(kind, 0), "count")
    metrics["fail.other"] = (sum(v for k, v in kinds.items() if k not in FAIL_KINDS), "count")
    overhead = sum(per_pass(traced, a) - per_pass(untraced, a) for a in ("certify_s", "verify_s"))
    metrics["trace.overhead_s"] = (overhead, "s")

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    OUT.mkdir(parents=True, exist_ok=True)
    t_zero = min((s[2] for s in tracer.spans), default=0.0)
    with open(spans_path, "w") as f:
        for span_id, name, t0, t1, parent, inst in sorted(tracer.spans):
            f.write(json.dumps({"id": span_id, "name": name, "start": t0 - t_zero,
                                "end": t1 - t_zero, "parent": parent, "instance": inst}) + "\n")
    ranked = sorted(SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_s"][0])
    for name in ranked:
        line(f"{name}.self_s", metrics[f"{name}.self_s"][0], "s", f"{calls.get(name, 0)} calls")
    for name in (*COUNTERS, "fourier.phi_accept_ratio", "bohr.minima_pick_ratio"):
        line(name, metrics[name][0], metrics[name][1])
    line("trace.overhead_s", metrics["trace.overhead_s"][0], "s",
         "traced minus untraced certify_s + verify_s")
    line("spans", len(tracer.spans), "", f"first traced pass, in {spans_path.relative_to(ROOT)}")
    for name in tracer.missing:
        line(name, "missing", "", "not found in cosetprog, so not traced")
    for (phase, layer), seconds in sorted(layer_self_times(tracer.spans).items()):
        line(f"{phase}.{layer}.self_s", seconds, "s", "first traced pass")
    record["counters"] = {k: v[0] for k, v in metrics.items() if v[1] == "count"}
    return metrics, record, attempted, failed


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    lib = load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise usage_error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    import numpy

    caps = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} nproc {nproc} numpy {numpy.__version__} "
          f"python {sys.version.split()[0]} {caps}")
    problems: list[str] = []
    if args.trace:
        instances = WORKLOADS[args.workload](args.seed)
        metrics, record, attempted, failed = per_layer(args, lib, instances, problems)
    else:
        setup_times, probe_inputs = measure_setup(args.workload, args.seed)
        instances = WORKLOADS[args.workload](args.seed)
        if probe_inputs != {inputs_digest(instances)}:
            problems.append("set-up produced different inputs for the same seed")
        setup = statistics.median(setup_times)
        line("setup_s", setup, "s", f"median of {SETUP_PROBES} fresh processes: import + generate")
        metrics, record, attempted, failed = end_to_end(args, lib, instances, problems)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        line("peak_rss_mb", rss, "MB", "ru_maxrss of this process")
        metrics = {"setup_s": (setup, "s"), **metrics, "peak_rss_mb": (rss, "MB")}
    record.update(code=code_digest(), inputs=inputs_digest(instances))
    problems += check_record(f"record-{args.workload}-seed{args.seed}.json", record)
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
