"""Golden certificate digests of the four benchmark workloads.

Each digest is sha256 over every instance's ``label + "\\n"`` and its
certificate text, or ``raise <Kind>\\n`` for an instance that raises, in
workload order, as ``bench/run.py`` hashes a pass, cut to 16 hex digits.
A change that moves a certificate moves a digest: such a change updates
the value here and names the workloads it moved.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cosetprog import run_pipeline, write_certificate

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload, digest", [
    ("small-batch", "ee3c45e53ef51357"),
    ("large-cyclic", "862ffb43fecf33c8"),
    ("model-chain", "5eaf89e83b269ba3"),
    ("dense-spectrum", "c5765915fa8cd947"),
])
def test_seed_101_certificates_keep_their_digest(workload, digest):
    h = hashlib.sha256()
    for inst in _workloads()[workload](101):
        h.update(inst.label.encode() + b"\n")
        try:
            text = write_certificate(run_pipeline(inst.a, inst.config))
        except Exception as exc:  # the Z/2^18 instance of large-cyclic raises ResourceLimitError
            text = f"raise {type(exc).__name__}\n"
        h.update(text.encode())
    assert h.hexdigest()[:16] == digest
