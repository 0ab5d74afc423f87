"""Move every integer token of four certificates by +-1, one at a time.

Each rewrite must be refused: a DomainError when the text is read, or a
report with a failing entry.  A rewrite may verify only if it is on
SAYS_THE_SAME, the rewrites that state the same thing as the certificate.
Prints the split of outcomes per certificate and a total, then exits 1
naming the first faults if a rewrite raised anything else or verified off
the list, else 0.

    PYTHONPATH=src python scripts/rewrite_sweep.py
"""

from __future__ import annotations

import re
import sys
import time

from cosetprog import DomainError, GroupSet, GroupSpec, read_certificate, run_pipeline
from cosetprog import verify_certificate, write_certificate
from cosetprog.generators import gen_progression, gen_random
from cosetprog.pipeline import PipelineConfig

F2_5 = GroupSpec((2,) * 5)
CERTIFICATES = {
    "Z/300 interval, model on": (gen_progression(GroupSpec((300,)), [0], [[1]], [5]), False),
    "Z/12 x Z/12 random, model on": (gen_random(GroupSpec((12, 12)), 20, 1), False),
    "Z/100 random, skip-model": (gen_random(GroupSpec((100,)), 12, 1), True),
    "F_2^5 minus 0, skip-model": (GroupSet(F2_5, range(1, F2_5.cardinality)), True),
}
# (certificate, line, rewritten line): a model-on certificate with no stage
# and the same certificate with the model skipped say the same thing
SAYS_THE_SAME = {
    ("Z/12 x Z/12 random, model on", "skip-model 0", "skip-model 1"),
    ("Z/100 random, skip-model", "skip-model 1", "skip-model 0"),
    ("F_2^5 minus 0, skip-model", "skip-model 1", "skip-model 0"),
}
INTEGER = re.compile(r"-?\d+")


def rewrites(text: str):
    """(line, rewritten line, rewritten text) for +-1 on each integer token."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        for pos, token in enumerate(tokens):
            if not INTEGER.fullmatch(token):
                continue
            for step in (-1, 1):
                moved = " ".join(tokens[:pos] + [str(int(token) + step)] + tokens[pos + 1:])
                yield line, moved, "\n".join(lines[:i] + [moved] + lines[i + 1:]) + "\n"


def outcome(text: str) -> str:
    """"read" for a DomainError at read, "fail" for a failing report,
    "verified", or the exception that anything else raised."""
    try:
        back = read_certificate(text)
    except DomainError:
        return "read"
    except Exception as exc:  # any other raise at read is a fault
        return f"{type(exc).__name__} at read: {exc}"
    try:
        return "verified" if verify_certificate(back).ok else "fail"
    except Exception as exc:  # verify raises nothing
        return f"{type(exc).__name__} in verify: {exc}"


def main() -> int:
    totals = {"read": 0, "fail": 0, "same": 0}
    faults = []
    start = time.perf_counter()
    for label, (a, skip_model) in CERTIFICATES.items():
        cert = run_pipeline(a, PipelineConfig(skip_model=skip_model))
        if not cert.all_passed:
            faults.append(f"{label}: the certificate itself has a failing check")
            continue
        split = {"read": 0, "fail": 0, "same": 0}
        for line, moved, text in rewrites(write_certificate(cert)):
            got = outcome(text)
            if got == "verified" and (label, line, moved) in SAYS_THE_SAME:
                got = "same"
            if got in split:
                split[got] += 1
            else:
                faults.append(f"{label}: {line!r} -> {moved!r}: {got}")
        print(f"{label}: {sum(split.values())} rewrites, {split['read']} read errors, "
              f"{split['fail']} failing reports, {split['same']} the same", flush=True)
        for key in totals:
            totals[key] += split[key]
    print(f"{sum(totals.values())} rewrites, {totals['read']} read errors, {totals['fail']} "
          f"failing reports, {totals['same']} the same, {len(faults)} faults, "
          f"{time.perf_counter() - start:.1f} s")
    for line in faults[:20]:
        print(line)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
