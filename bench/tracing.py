"""Spans and counters around the public functions of each cosetprog module.

The tracer wraps functions from outside the package: nothing under
``src/`` knows it exists.  ``from .x import f`` copies ``f`` into the
importing module, so each function is replaced in every ``cosetprog.*``
namespace that binds it, and the originals are put back on ``uninstall``.

A span is (span id, name, start, end, parent span id, instance id).  A
function's self time is its span minus the time its child spans cover.
Counters are derived from the arguments and results at the same
boundaries; the ones marked "computed" come from sizes, not from counting
work as it happens.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter

import cosetprog
from cosetprog.covering import CoverInput

# layer -> public functions on the certify/verify path.  generators only
# runs during set-up, and models.f2_shrink is not reachable from
# run_pipeline or verify_certificate, so neither is traced.
TRACED = {
    "sumsets": ("doubling", "iterated_sumset", "sumset"),
    "groups": ("kernel_of_characters", "subgroup_decomposition"),
    "fourier": ("indicator_transform", "spec_threshold", "max_dissociated",
                "is_dissociated", "bogolyubov_bohr"),
    "models": ("minimize_model", "find_concentrating_character", "shrink_model_step"),
    "bohr": ("bohr_set", "successive_minima", "progression_from_bohr", "materialize"),
    "freiman": ("is_freiman_iso", "induced_difference_iso", "transport_progression"),
    "covering": ("CoverInput.build", "chang_cover"),
    "pipeline": ("run_pipeline", "write_certificate", "read_certificate",
                 "verify_certificate"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

COUNTERS = (
    "models.stages",
    "fourier.spec_size",
    "fourier.phi_size",
    "fourier.transform_points",
    "fourier.phi_tests",
    "bohr.minima_dim",
    "bohr.lift_rows",
    "covering.rounds",
    "pipeline.cert_bytes",
)


def _transform(counts, arguments, result):
    counts["fourier.transform_points"] += result.spec.cardinality * result.set_size  # computed


def _threshold(counts, arguments, result):
    counts["fourier.spec_size"] += len(result.chars)


def _dissociated(counts, arguments, result):
    counts["fourier.phi_size"] += len(result)
    # the greedy scan tests every threshold character once (computed)
    counts["fourier.phi_tests"] += len(arguments["threshold_set"].chars)


def _minima(counts, arguments, result):
    d = result.dimension
    index = result.spec.cardinality // result.subgroup.order
    counts["bohr.minima_dim"] += d
    counts["bohr.lift_rows"] += (index - 1) * (1 << d) + d  # computed


def _model(counts, arguments, result):
    counts["models.stages"] += len(result.stages)


def _cover(counts, arguments, result):
    counts["covering.rounds"] += result.t + 1


def _written(counts, arguments, result):
    counts["pipeline.cert_bytes"] += len(result.encode())


HOOKS = {
    "fourier.indicator_transform": _transform,
    "fourier.spec_threshold": _threshold,
    "fourier.max_dissociated": _dissociated,
    "bohr.successive_minima": _minima,
    "models.minimize_model": _model,
    "covering.chang_cover": _cover,
    "pipeline.write_certificate": _written,
}


class Tracer:
    """Collects spans, self times, call counts and counters while active."""

    def __init__(self) -> None:
        self.active = False
        self.instance = -1
        self.keep_spans = True
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.errors: list[str] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        """Clear the per-pass totals (spans are kept for the dump)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    @contextlib.contextmanager
    def paused(self):
        """Leave calls made by the benchmark's own checks out of the trace."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                if self.keep_spans:
                    self.spans.append((span_id, name, start, end, parent, self.instance))
            if hook is not None:
                try:
                    hook(self.counts, signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a counter bug must not pass for a library failure
                    self.errors.append(f"counter hook of {name}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._restore:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cosetprog" or n.startswith("cosetprog."))]
        for layer, fns in TRACED.items():
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if fn_name == "CoverInput.build":
                    # a classmethod: wrap the function, keep the class
                    original = CoverInput.__dict__["build"]
                    wrapped = classmethod(self._wrap(name, original.__func__))
                    self._restore.append((CoverInput, "build", original))
                    setattr(CoverInput, "build", wrapped)
                    continue
                original = getattr(sys.modules[f"cosetprog.{layer}"], fn_name, None)
                if original is None:  # removed from the library: reported with 0 calls
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapped)
        if not hasattr(cosetprog.run_pipeline, "__wrapped__"):
            raise RuntimeError("tracer failed to wrap cosetprog.run_pipeline")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
