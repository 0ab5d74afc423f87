"""Certify every nonempty subset of a list of tiny groups, model on and off.

Each run must certify with every check passed, read back, verify, and be
written back byte for byte.  Prints one line per group and a total, then
exits 1 naming the first failures if any run raised or fell short, else 0.

    PYTHONPATH=src python scripts/exhaustive_sweep.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from cosetprog import GroupSet, GroupSpec, read_certificate, run_pipeline, verify_certificate
from cosetprog import write_certificate
from cosetprog.pipeline import PipelineConfig

GROUPS = [(n,) for n in range(1, 11)] + [(12,), (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6)]


def fault(a: GroupSet, skip_model: bool) -> str:
    """Why one run falls short, or "" when it certifies, verifies and
    round-trips."""
    try:
        cert = run_pipeline(a, PipelineConfig(skip_model=skip_model))
        if not cert.all_passed:
            return "a check failed: " + ", ".join(c.name for c in cert.checks if not c.passed)
        text = write_certificate(cert)
        back = read_certificate(text)
        report = verify_certificate(back)
        if not report.ok:
            return "verify failed: " + ", ".join(e.name for e in report.failures())
        if write_certificate(back) != text:
            return "the certificate read back is written differently"
    except Exception as exc:  # every raise is a fault here
        return f"{type(exc).__name__}: {exc}"
    return ""


def main() -> int:
    runs, faults = 0, []
    start = time.perf_counter()
    for orders in GROUPS:
        spec = GroupSpec(orders)
        size = spec.cardinality
        for bits in range(1, 1 << size):
            a = GroupSet(spec, np.flatnonzero([bits >> i & 1 for i in range(size)]))
            for skip_model in (False, True):
                runs += 1
                if why := fault(a, skip_model):
                    faults.append(f"{spec} {a.indices.tolist()} skip_model={skip_model}: {why}")
        print(f"{spec}: {2 * ((1 << size) - 1)} runs", flush=True)
    print(f"{runs} runs, {len(faults)} faults, {time.perf_counter() - start:.1f} s")
    for line in faults[:20]:
        print(line)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
