"""Compare the lazy successive minima with the whole candidate table.

For a seeded set of random character lists over the test suite's small
groups, F_2^8, (Z/3)^5 and Z/1024, ``successive_minima`` must pick the
same minima, vectors, preimages and kernel as ``oracle_minima`` from
``tests/conftest.py``, which sorts and scans every candidate.  Prints the
count per group and a total, then exits 1 naming the first difference,
else 0.

    PYTHONPATH=src python scripts/minima_sweep.py
"""

from __future__ import annotations

import importlib.util
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from cosetprog import GroupSpec, successive_minima

CONFTEST_PY = Path(__file__).resolve().parents[1] / "tests" / "conftest.py"
CASES_PER_GROUP = 120
SEED = 2025


def _conftest():
    spec = importlib.util.spec_from_file_location("minima_sweep_conftest", CONFTEST_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    conftest = _conftest()
    groups = [s.orders for s in conftest.SMALL_SPECS] + [(2,) * 8, (3,) * 5, (1024,)]
    rng = Random(SEED)
    shifted = 0
    start = time.perf_counter()
    for orders in groups:
        spec = GroupSpec(orders)
        for _ in range(CASES_PER_GROUP):
            d = 1 + rng.randrange(min(6, spec.cardinality - 1))
            chars = [spec.character_at(i) for i in rng.sample(range(1, spec.cardinality), d)]
            m = successive_minima(chars)
            got = (m.lambdas, m.vectors, tuple(p.index for p in m.preimages), m.subgroup.order)
            want = conftest.oracle_minima(chars)
            if got != want:
                print(f"{spec} {chars}: lazy {got}, whole table {want}")
                return 1
            shifted += m.lambdas[-1] >= Fraction(1, 2)
        print(f"{spec}: {CASES_PER_GROUP} character lists", flush=True)
    print(f"{CASES_PER_GROUP * len(groups)} character lists, {shifted} reaching norm 1/2, "
          f"0 differences, {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
