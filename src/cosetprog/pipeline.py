"""End-to-end pipeline with certificate emission and independent re-verification.

A run produces a PipelineCertificate: every intermediate object (model
trace, spectral data, minima, progressions, covering rounds) plus one
named pass/fail line per bound.  The certificate is self-contained: the
verifier checks the search choices for the properties their searches
guarantee, and re-derives every check and derived value from them with
the same functions the run used, never re-running a search.  A model
stage is stored as its choice (gamma, q, interval) alone; its map, and
the transport map the chain induces on 2A' - 2A', are derived, not stored.
Serialization is deterministic, so identical input and config give
byte-identical certificates.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from functools import cache
from operator import attrgetter

import numpy as np

from .bohr import (
    BohrExtraction,
    CosetProgression,
    MinimaReport,
    bohr_set,
    extraction_checks,
    materialize,
    minima_frame,
    progression_from_bohr,
    progression_from_minima,
    whole_group_extraction,
)
from .checks import BoundCheck, _fmt, parse_scalar
from .covering import CoverInput, CoverTrace, assemble_q, chang_cover, cover_trace
from .errors import DomainError, InvariantError
from .fourier import (
    BogolyubovReport,
    Cube,
    bogolyubov_bohr,
    bogolyubov_report,
    bogolyubov_threshold,
    indicator_transform,
)
from .freiman import induced_difference_iso, is_freiman_iso, transport_progression
from .groups import DEFAULT_ENUMERATION_CAP, Character, GroupElement, GroupSpec, Subgroup
from .models import ModelStage, ModelTrace, minimize_model, model_trace, shrink_model_step
from .sumsets import DoublingReport, GroupSet, doubling, iterated_sumset, pair_chunks, sumset
from .textio import (
    Shapes,
    character_rows,
    element_rows,
    fmt_float,
    fmt_fraction,
    group_set_lines,
    join_ints,
    parse_float,
    parse_fraction,
    parse_group_set,
    parse_int,
    parse_ints,
    parse_progression,
    progression_lines,
    strip_lines,
)

CERT_HEADER = "cosetprog-certificate v1"


@dataclass(frozen=True)
class PipelineConfig:
    s: int = 8
    skip_model: bool = False
    tolerance: float = 1e-9
    cap: int = DEFAULT_ENUMERATION_CAP
    log_base: float = math.e


@dataclass(frozen=True, eq=False)
class PipelineCertificate:
    config: PipelineConfig
    input_set: GroupSet
    doubling_report: DoublingReport
    model: ModelTrace
    alpha: Fraction
    threshold_rho: float
    phi: tuple[Character, ...]
    bohr_rho: Fraction
    l4_sum: float
    l4_lower: float
    dim_bound: float
    radius_lower: float
    minima: MinimaReport | None
    progression_model: CosetProgression
    progression: CosetProgression
    cover: CoverTrace
    checks: tuple[BoundCheck, ...]
    summary: tuple[tuple[str, int | Fraction | float], ...]

    @property
    def all_passed(self) -> bool:
        return not any(c.failed for c in self.checks)


def run_pipeline(
    a: GroupSet, config: PipelineConfig = PipelineConfig()
) -> PipelineCertificate:
    """Doubling, model, spectral localization, extraction, transport, cover.

    With the model on, the progression found in the model group comes back
    through the 2-isomorphism that the chain's composite induces on
    2A' - 2A' (``induced_difference_iso``); the certificate stores the
    chain's choices and both progressions, not that map.
    """
    if not a:
        raise DomainError("the pipeline needs a nonempty input set")
    dbl = doubling(a)

    if config.skip_model:
        trace = model_trace(config.s, a, [], dbl.k)
    else:
        trace = minimize_model(a, config.s, cap=config.cap)
    a1 = trace.final_set

    bog = bogolyubov_bohr(
        a1, cap=config.cap, tol=config.tolerance, log_base=config.log_base
    )
    bset = bohr_set(bog.bohr, config.cap)
    d22 = iterated_sumset(a1, 2, 2)
    bohr_check = bohr_containment(bset, d22)
    if bohr_check.failed:
        raise InvariantError("Bohr set escaped 2A-2A in the model group")

    if bog.bohr.dimension == 0:
        extraction = whole_group_extraction(bog.bohr)
    else:
        extraction = progression_from_bohr(bog.bohr, config.cap, bset)

    cp = extraction.progression
    if not trace.is_identity:
        cp = transport_progression(induced_difference_iso(trace.composite.inverse()), cp)

    cover_input = CoverInput.build(a, cp, config.cap, d22 if a1 == a else None)
    cover = chang_cover(cover_input, config.cap)
    return _certificate(config, a, dbl, trace, bog, bohr_check, extraction, cp, cover)


def bohr_containment(bset: GroupSet, d22: GroupSet) -> BoundCheck:
    """The Bohr set ``bset`` inside ``d22`` = 2A' - 2A' for the model set A'."""
    return BoundCheck.make("bohr_containment", bset.is_subset(d22), bset.size, d22.size)


def _summary(
    a: GroupSet, dbl: DoublingReport, trace: ModelTrace, cover: CoverTrace, log_base: float
) -> tuple[tuple[str, int | Fraction | float], ...]:
    kf = float(dbl.k)
    return (
        ("final-dimension", cover.q.dimension),
        ("final-size", cover.q_size),
        ("input-size", a.size),
        ("size-ratio", Fraction(cover.q_size, a.size)),
        ("doubling", dbl.k),
        ("model-group-size", trace.final_set.spec.cardinality),
        ("model-density", trace.density_final),
        ("reference-dimension-bound", 2.0**9 * kf**3 * math.log(kf + 2, log_base)),
        ("reference-size-exponent", 2.0**14 * kf**3 * math.log(kf + 2, log_base) ** 2),
    )


def _certificate(
    config: PipelineConfig,
    a: GroupSet,
    dbl: DoublingReport,
    trace: ModelTrace,
    bog: BogolyubovReport,
    bohr_check: BoundCheck,
    extraction: BohrExtraction,
    cp: CosetProgression,
    cover: CoverTrace,
) -> PipelineCertificate:
    """The certificate of one run: its objects, every check and the summary.

    A transported progression keeps the model's dimension and size.
    """
    moved = ()
    if not trace.is_identity:
        cp_model = extraction.progression
        size, size_model = (materialize(p, config.cap).size for p in (cp, cp_model))
        moved = (
            BoundCheck.make("transport_dimension", cp.dimension == cp_model.dimension,
                            cp.dimension, cp_model.dimension),
            BoundCheck.make("transport_size", size == size_model, size, size_model),
        )
    return PipelineCertificate(
        config=config,
        input_set=a,
        doubling_report=dbl,
        model=trace,
        alpha=bog.alpha,
        threshold_rho=bog.threshold_rho,
        phi=bog.phi,
        bohr_rho=bog.bohr.rho,
        l4_sum=bog.l4_sum,
        l4_lower=bog.l4_lower,
        dim_bound=bog.dim_bound,
        radius_lower=bog.radius_lower,
        minima=extraction.minima,
        progression_model=extraction.progression,
        progression=cp,
        cover=cover,
        checks=(*bog.checks, bohr_check, *extraction.checks, *moved, *cover.checks),
        summary=_summary(a, dbl, trace, cover, config.log_base),
    )


# --- serialization ----------------------------------------------------------


def _section(out: list[str], name: str, lines: list[str]) -> None:
    out.append(f"begin {name}")
    out.extend(lines)
    out.append(f"end {name}")


def write_certificate(cert: PipelineCertificate) -> str:
    c = cert.config
    out: list[str] = [CERT_HEADER]
    out.append("begin config")
    out.append(f"s {c.s}")
    out.append(f"skip-model {1 if c.skip_model else 0}")
    out.append(f"tolerance {fmt_float(c.tolerance)}")
    out.append(f"cap {c.cap}")
    out.append("log-base " + ("e" if c.log_base == math.e else fmt_float(c.log_base)))
    out.append("end config")

    _section(out, "input", group_set_lines(cert.input_set))

    out.append("begin doubling")
    out.append(f"set-size {cert.doubling_report.set_size}")
    out.append(f"sumset-size {cert.doubling_report.sumset_size}")
    out.append("k " + fmt_fraction(cert.doubling_report.k))
    out.append("end doubling")

    out.append("begin model")
    out.append(f"identity {1 if cert.model.is_identity else 0}")
    out.append("density-initial " + fmt_fraction(cert.model.density_initial))
    out.append("density-final " + fmt_fraction(cert.model.density_final))
    out.append("density-bound " + fmt_float(cert.model.prop_density_bound))
    out.append(f"stages {len(cert.model.stages)}")
    for stage in cert.model.stages:
        out.append("begin stage")
        out.append("group " + join_ints(stage.gamma.spec.orders))
        out.append("gamma " + join_ints(stage.gamma.coords))
        out.append(f"q {stage.q}")
        out.append(f"interval {stage.interval[0]} {stage.interval[1]}")
        out.append("end stage")
    _section(out, "model-set", group_set_lines(cert.model.final_set))
    out.append("end model")

    out.append("begin bogolyubov")
    out.append("alpha " + fmt_fraction(cert.alpha))
    out.append("threshold-rho " + fmt_float(cert.threshold_rho))
    _section(out, "phi", ["char " + join_ints(gamma.coords) for gamma in cert.phi])
    out.append("bohr-rho " + fmt_fraction(cert.bohr_rho))
    out.append("l4-sum " + fmt_float(cert.l4_sum))
    out.append("l4-lower " + fmt_float(cert.l4_lower))
    out.append("dim-bound " + fmt_float(cert.dim_bound))
    out.append("radius-lower " + fmt_float(cert.radius_lower))
    out.append("end bogolyubov")

    if cert.minima is not None:
        m = cert.minima
        out.append("begin minima")
        out.append(f"denominator {m.denominator}")
        _section(out, "stripped", ["char " + join_ints(gamma.coords) for gamma in m.stripped])
        _section(out, "subgroup", ["elem " + join_ints(g.coords) for g in m.subgroup.generators])
        out.append(f"subgroup-size {m.subgroup.order}")
        out.append("det " + fmt_fraction(m.det))
        for lam, vec, pre in zip(m.lambdas, m.vectors, m.preimages):
            out.append(
                "minimum "
                + fmt_fraction(lam)
                + " vector "
                + " ".join(fmt_fraction(v) for v in vec)
                + " preimage "
                + join_ints(pre.coords)
            )
        out.append("end minima")

    _section(out, "progression-model", progression_lines(cert.progression_model))
    _section(out, "progression", progression_lines(cert.progression))

    cover = cert.cover
    out.append("begin cover")
    out.append(f"mk {cover.mk}")
    out.append(f"t {cover.t}")
    out.append("eta " + fmt_fraction(cover.input.eta))
    for i, r in enumerate(cover.r_sets):
        _section(out, f"r{i}", group_set_lines(r))
    for i, s in enumerate(cover.s_sets):
        _section(out, f"s{i}", group_set_lines(s))
    for i, size in enumerate(cover.p_sizes):
        out.append(f"p-size {i} {size}")
    _section(out, "q", progression_lines(cover.q))
    out.append(f"q-size {cover.q_size}")
    out.append("end cover")

    _section(out, "checks", [check.line() for check in cert.checks])
    _section(out, "summary", [f"{key} {_fmt(value)}" for key, value in cert.summary])
    return "\n".join(out) + "\n"


# --- parsing ----------------------------------------------------------------


class _Block:
    """A certificate section: its own lines, its subsections, and the first
    line of each key, indexed on the first lookup."""

    __slots__ = ("name", "lines", "children", "_keys")

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[list[str]] = []
        self.children: list[_Block] = []
        self._keys: dict[str, list[str]] | None = None

    def child(self, name: str) -> "_Block":
        block = self.maybe_child(name)
        if block is None:
            raise DomainError(f"certificate is missing section {name!r}")
        return block

    def maybe_child(self, name: str) -> "_Block | None":
        for c in self.children:
            if c.name == name:
                return c
        return None

    def kv(self, key: str, count: int | None = None) -> list[str]:
        """The tokens after ``key``; exactly ``count`` of them if given."""
        if self._keys is None:
            self._keys = {line[0]: line for line in reversed(self.lines)}
        line = self._keys.get(key)
        if line is None:
            raise DomainError(f"section {self.name!r} is missing key {key!r}")
        if count is not None and len(line) - 1 != count:
            raise DomainError(
                f"key {key!r} in section {self.name!r} needs {count} "
                f"value(s), got {len(line) - 1}"
            )
        return line[1:]

    def value(self, key: str) -> str:
        return self.kv(key, 1)[0]


def _parse_blocks(rows: list[list[str]]) -> _Block:
    root = _Block("root")
    stack = [root]
    start = 0
    for i in [i for i, row in enumerate(rows) if row[0] in ("begin", "end")]:
        stack[-1].lines += rows[start:i]  # the rows since the last begin or end
        start = i + 1
        row = rows[i]
        if row[0] == "begin":
            block = _Block(" ".join(row[1:]))
            stack[-1].children.append(block)
            stack.append(block)
        else:
            if len(stack) == 1 or stack[-1].name != " ".join(row[1:]):
                raise DomainError(f"unbalanced section end: {' '.join(row)}")
            stack.pop()
    stack[-1].lines += rows[start:]
    if len(stack) != 1:
        raise DomainError(f"unterminated section {stack[-1].name!r}")
    return root


def _numbered(block: _Block, prefix: str) -> list[_Block]:
    """The subsections prefix0, prefix1, ... up to the first one missing."""
    found = []
    while (child := block.maybe_child(f"{prefix}{len(found)}")) is not None:
        found.append(child)
    return found


def read_certificate(text: str) -> PipelineCertificate:
    """Parse a certificate; ``verify_certificate`` judges what it says.

    The reader checks only shape: a section missing or out of place, a row
    with the wrong keyword or arity, a count that contradicts the sections
    it counts, or a subgroup size that contradicts its generators is a
    DomainError.  It reads a block of rows
    at a time and does no set arithmetic: the covered set P + H is not in
    the text, so the cover input's ``realized`` is left None, and no map
    is built, so each model stage's ``map`` is None.  Each group and each
    subgroup the text names is built once.
    """
    rows = strip_lines(text)
    if not rows or " ".join(rows[0]) != CERT_HEADER:
        raise DomainError("not a certificate file")
    root = _parse_blocks(rows[1:])
    shapes = Shapes()

    cfg = root.child("config")  # other keys, such as an older certificate's, are not read
    log_token = cfg.value("log-base")
    config = PipelineConfig(
        s=parse_int(cfg.value("s")),
        skip_model=cfg.value("skip-model") == "1",
        tolerance=parse_float(cfg.value("tolerance")),
        cap=parse_int(cfg.value("cap")),
        log_base=math.e if log_token == "e" else parse_float(log_token),
    )

    input_set = parse_group_set(root.child("input").lines, shapes)

    dbl_b = root.child("doubling")
    dbl = DoublingReport(
        set_size=parse_int(dbl_b.value("set-size")),
        sumset_size=parse_int(dbl_b.value("sumset-size")),
        k=parse_fraction(dbl_b.value("k")),
    )

    model_b = root.child("model")
    stages: list[ModelStage] = []
    for sb in model_b.children:
        if sb.name != "stage":
            continue
        # an older stage's kind, translation and map are not read, except
        # that a stage with no group line takes it from its map's source line
        old_map = sb.maybe_child("map")
        if old_map is not None and all(line[0] != "group" for line in sb.lines):
            spec = shapes.spec(old_map.kv("source"))
        else:
            spec = shapes.spec(sb.kv("group"))
        stages.append(
            ModelStage(
                gamma=spec.character(parse_ints(sb.kv("gamma", spec.rank))),
                q=parse_int(sb.value("q")),
                interval=parse_ints(sb.kv("interval", 2)),
            )
        )
    identity = "0" if stages else "1"
    if parse_int(model_b.value("stages")) != len(stages) or model_b.value("identity") != identity:
        raise DomainError(f"the model section does not hold {len(stages)} stage(s)")
    final_set = parse_group_set(model_b.child("model-set").lines, shapes)
    trace = ModelTrace(
        s=config.s,
        initial_set=input_set,
        stages=tuple(stages),
        final_set=final_set,
        density_initial=parse_fraction(model_b.value("density-initial")),
        density_final=parse_fraction(model_b.value("density-final")),
        prop_density_bound=parse_float(model_b.value("density-bound")),
    )

    bog_b = root.child("bogolyubov")  # an older certificate's gamma-raw section is not read
    spec1 = final_set.spec
    phi_chars = character_rows(spec1, bog_b.child("phi").lines)

    minima = None
    min_b = root.maybe_child("minima")
    if (min_b is None) != (not phi_chars):
        raise DomainError("a minima section goes with a nonempty phi, and only then")
    if min_b is not None:
        stripped = character_rows(spec1, min_b.child("stripped").lines)
        subgroup = shapes.subgroup(spec1, element_rows(spec1, min_b.child("subgroup").lines))
        if parse_int(min_b.value("subgroup-size")) != subgroup.order:
            raise DomainError(
                f"subgroup-size contradicts the generators, which give {subgroup.order}"
            )
        lambdas, vectors, preimages = [], [], []
        for line in min_b.lines:
            if line[0] != "minimum":
                continue
            if line[2:3] != ["vector"] or "preimage" not in line:
                raise DomainError(
                    "minimum line must read 'minimum lam vector v.. preimage x..': "
                    + " ".join(line)
                )
            pi = line.index("preimage")
            lambdas.append(parse_fraction(line[1]))
            if lambdas[-1] <= 0:
                raise DomainError(f"a successive minimum must be positive: {' '.join(line)}")
            vectors.append(tuple(map(parse_fraction, line[3:pi])))
            preimages.append(spec1.element(parse_ints(line[pi + 1 :])))
        minima = MinimaReport(
            spec=spec1,
            chars=phi_chars,
            stripped=stripped,
            denominator=parse_int(min_b.value("denominator")),
            lambdas=tuple(lambdas),
            vectors=tuple(vectors),
            preimages=tuple(preimages),
            subgroup=subgroup,
            det=parse_fraction(min_b.value("det")),
        )

    cp_model = parse_progression(root.child("progression-model").lines, shapes)
    # an older certificate's transport section is not read
    cp = parse_progression(root.child("progression").lines, shapes)

    cover_b = root.child("cover")
    r_sets = [parse_group_set(b.lines, shapes) for b in _numbered(cover_b, "r")]
    s_sets = [parse_group_set(b.lines, shapes) for b in _numbered(cover_b, "s")]
    if len(r_sets) != len(s_sets) + 1:
        raise DomainError("a cover needs one more r section than s sections")
    p_sizes = []
    for line in cover_b.lines:
        if line[0] == "p-size":
            if len(line) != 3 or parse_int(line[1]) != len(p_sizes):
                raise DomainError(
                    f"p-size lines must read 'p-size i n' for i = 0, 1, ...: {' '.join(line)}"
                )
            p_sizes.append(parse_int(line[2]))
    checks = []
    for line in root.child("checks").lines:
        if line[0] == "check":
            if len(line) != 5:
                raise DomainError(
                    f"check line must read 'check name status lhs rhs': {' '.join(line)}"
                )
            checks.append(BoundCheck(*line[1:3], parse_scalar(line[3]), parse_scalar(line[4])))
    summary = []
    for line in root.child("summary").lines:
        if len(line) != 2:
            raise DomainError(f"summary line must read 'key value': {' '.join(line)}")
        summary.append((line[0], parse_scalar(line[1])))
    cover = CoverTrace(
        input=CoverInput(
            set=input_set,
            progression=cp,
            realized=None,
            eta=parse_fraction(cover_b.value("eta")),
            dimension=cp.dimension,
            doubling=dbl,
        ),
        mk=parse_int(cover_b.value("mk")),
        t=parse_int(cover_b.value("t")),
        r_sets=tuple(r_sets),
        s_sets=tuple(s_sets),
        p_sizes=tuple(p_sizes),
        q=parse_progression(cover_b.child("q").lines, shapes),
        q_size=parse_int(cover_b.value("q-size")),
        checks=tuple(c for c in checks if c.name.startswith("cover_")),
    )
    return PipelineCertificate(
        config=config,
        input_set=input_set,
        doubling_report=dbl,
        model=trace,
        alpha=parse_fraction(bog_b.value("alpha")),
        threshold_rho=parse_float(bog_b.value("threshold-rho")),
        phi=phi_chars,
        bohr_rho=parse_fraction(bog_b.value("bohr-rho")),
        l4_sum=parse_float(bog_b.value("l4-sum")),
        l4_lower=parse_float(bog_b.value("l4-lower")),
        dim_bound=parse_float(bog_b.value("dim-bound")),
        radius_lower=parse_float(bog_b.value("radius-lower")),
        minima=minima,
        progression_model=cp_model,
        progression=cp,
        cover=cover,
        checks=tuple(checks),
        summary=tuple(summary),
    )


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class VerificationEntry:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[VerificationEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[VerificationEntry]:
        return [e for e in self.entries if not e.ok]


def verify_certificate(cert: PipelineCertificate) -> VerificationReport:
    """Re-check a certificate without re-running any search.

    The search choices (each model stage's gamma, q and interval, Phi, the
    minima, the translates R_i and S_i) are checked for the properties
    their searches guarantee.  Each stage's map is derived from its choice
    by ``shrink_model_step``, which checks the choice and that the map is
    a Freiman s-isomorphism; a stage it rejects fails ``model_stage_<i>``
    with its message, and the chain stops there.  The transport map is
    derived from the chain as in ``run_pipeline``.  Everything else is
    re-derived by the builders' own functions: each check becomes one
    entry under its own name, evaluated on the stored objects, and each
    stored value that differs from its derivation is one ``stored_value``
    entry.  A failing entry says why in its detail.  Failures are
    collected, not short-circuited.
    """
    entries: list[VerificationEntry] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        entries.append(VerificationEntry(name, bool(ok), detail))

    cfg = cert.config
    cap = cfg.cap
    a = cert.input_set
    dbl = doubling(a)

    # model chain: each stage's map derived from its choice
    stages: list[ModelStage] = []
    for i, choice in enumerate(cert.model.stages):
        current = stages[-1].set_after if stages else a
        try:
            stages.append(
                shrink_model_step(current, cfg.s, choice.gamma, choice.q, choice.interval, cap)
            )
        except DomainError as exc:
            add(f"model_stage_{i}", False, str(exc))
            break
        add(f"model_stage_{i}", True)
    # a chain that stops short derives no trace to compare with the stored one
    derived_chain = len(stages) == len(cert.model.stages)
    trace = model_trace(cfg.s, a, stages, dbl.k) if derived_chain else cert.model
    if derived_chain and stages:
        iso = is_freiman_iso(trace.composite, cfg.s)
        w = iso.witness
        fault = "" if iso.ok else "the composite is not one-to-one" if w is None else (
            f"a {w.layer}-fold sum (index {w.sum_index}) has image sums {list(w.image_indices)}"
        )
        add("model_composite", not fault, fault)
    a1 = cert.model.final_set

    # spectral stage: Phi inside the threshold set, dissociated and maximal
    spectrum = indicator_transform(a1, cap)
    dbl1 = doubling(a1)
    tset = bogolyubov_threshold(spectrum, dbl1.k, cfg.tolerance)
    bog = bogolyubov_report(dbl1, spectrum, tset, cert.phi, cfg.tolerance, cfg.log_base)
    phi = cert.phi
    inside = np.isin([g.index for g in phi], tset.indices)
    stray = None if inside.all() else phi[int(np.argmin(inside))]
    add(
        "phi_inside_raw",
        stray is None,
        "" if stray is None else f"{stray!r} has magnitude {fmt_float(spectrum.magnitude(stray))}"
        f" below the threshold {fmt_float(tset.rho * float(tset.alpha) * (1 - cfg.tolerance))}",
    )
    cube = Cube(a1.spec, phi)
    i = cube.first_inside
    add(
        "phi_dissociated",
        i is None,
        "" if i is None else f"{phi[i]!r} in the cube of phi[:{i}], witness {cube.witness()}",
    )
    outside = tset.indices[~cube.mask.reshape(-1)[tset.indices]]
    add(
        "phi_maximal",
        not outside.size,
        "" if not outside.size
        else f"{a1.spec.character_at(int(outside[0]))!r} outside the cube of phi",
    )
    bset = bohr_set(bog.bohr, cap)
    d22 = iterated_sumset(a1, 2, 2)
    bohr_check = bohr_containment(bset, d22)

    # extraction: the minima's vectors, then P judged and re-derived
    if cert.minima is None:
        extraction = whole_group_extraction(bog.bohr)
    else:
        m = cert.minima
        minima = replace(
            minima_frame(phi, cap), lambdas=m.lambdas, vectors=m.vectors, preimages=m.preimages
        )
        fault = _minima_vectors_fault(minima)
        add("minima_vectors", not fault, fault)
        i = minima.first_dependent()
        add(
            "minima_independent",
            i is None,
            "" if i is None else f"minimum {i}'s vector lies in the span of the ones before it",
        )
        judged = extraction_checks(bog.bohr, minima, cert.progression_model, bset, cap)
        rule = progression_from_minima(bog.bohr, minima)
        extraction = replace(judged, progression=replace(rule, proper=judged.progression.proper))

    # transport: the map the derived chain induces on 2A' - 2A' must carry
    # progression-model onto progression
    if cert.model.is_identity:
        cp = extraction.progression
    else:
        cp = cert.progression
        zeta, fault = None, "the model chain was not derived"
        if derived_chain:
            try:
                zeta = induced_difference_iso(trace.composite.inverse())
            except DomainError as exc:
                fault = str(exc)
        add("transport_iso", zeta is not None, "" if zeta is not None else fault)
        if zeta is not None:
            source = materialize(cert.progression_model, cap)
            if not source.is_subset(zeta.domain):
                fault = "progression-model is not inside 2A'-2A'"
            else:
                image = GroupSet(zeta.target, zeta.apply_indices(source.indices))
                moved = materialize(cp, cap)
                fault = "" if moved == image else (
                    "progression is not the image of progression-model "
                    f"({moved.size} and {image.size} point(s))"
                )
            add("transport_image", not fault, fault)

    # covering rounds: each R_i maximal and disjoint, each S_i a batch of R_i
    cover = cert.cover
    cover_input = CoverInput.derive(a, cp, dbl, cap)
    p_sets = [cover_input.realized]
    add("cover_input_proper", cp.proper and p_sets[0].size == cp.formal_size)
    d22_input = d22 if a1 == a else iterated_sumset(a, 2, 2)
    add("cover_input_contained", p_sets[0].is_subset(d22_input))
    t = len(cover.s_sets)
    for i, r_i in enumerate(cover.r_sets):
        p_current = p_sets[i]
        union = sumset(p_current, r_i)
        disjoint = r_i.is_subset(a) and union.size == p_current.size * r_i.size
        add(f"cover_round_{i}_disjoint", disjoint)
        covered = np.zeros(a.spec.cardinality, dtype=bool)
        covered[union.indices] = True
        maximal = np.isin(a.indices, r_i.indices)  # x in R_i, or P_i + x meets P_i + R_i
        for rows in pair_chunks(a.size, p_current.size):
            grid = a.spec.add_pairwise(a.indices[rows], p_current.indices)
            maximal[rows] |= covered[grid].any(axis=1)
        maximal_r = bool(maximal.all())
        add(f"cover_round_{i}_maximal", maximal_r)
        if i < t:
            s_i = cover.s_sets[i]
            add(
                f"cover_round_{i}_batch",
                s_i.size == cover_input.mk and s_i.is_subset(r_i) and r_i.size > cover_input.mk,
            )
            p_sets.append(sumset(p_current, s_i))
            add(f"cover_round_{i}_growth", p_sets[-1].size == p_current.size * s_i.size)
    add("cover_rt_small", cover.r_sets[t].size <= cover_input.mk)
    judged = cover_trace(cover_input, cover.r_sets, cover.s_sets, p_sets, cover.q, cap)
    q = replace(assemble_q(cp, cover.s_sets, cover.r_sets[t]), proper=judged.q.proper)

    derived = _certificate(
        cfg, a, dbl, trace, bog, bohr_check, extraction, cp, replace(judged, q=q)
    )
    for check in derived.checks:
        add(check.name, not check.failed, f"{check.status} {_fmt(check.lhs)} {_fmt(check.rhs)}")
    for path, stored, value in _stored_value_mismatches(cert, derived, cfg.tolerance):
        add("stored_value", False, f"{path}: stored {_fmt(stored)}, derived {_fmt(value)}")
    return VerificationReport(tuple(entries))


def _minima_vectors_fault(minima: MinimaReport) -> str:
    """The first stored minimum whose vector leaves the cube of its lambda
    or is not phi at its preimage mod Z^d, and how; empty if none does."""
    for i, (lam, vec, pre) in enumerate(zip(minima.lambdas, minima.vectors, minima.preimages)):
        if len(vec) != minima.dimension:
            return f"minimum {i}: {len(vec)} coordinates, not {minima.dimension}"
        for gamma, v in zip(minima.chars, vec):
            if abs(v) > lam:
                return f"minimum {i}: coordinate {_fmt(v)} exceeds lambda {_fmt(lam)}"
            value = gamma.arg_fraction(pre)
            if (value - v).denominator != 1:
                return (
                    f"minimum {i}: coordinate {_fmt(v)} is not {gamma!r} at the "
                    f"preimage, {_fmt(value)}, mod 1"
                )
    return ""


# the types of values that hold no float, compared by == alone
_EXACT = frozenset({bool, int, str, Fraction, Character, GroupElement, GroupSpec})


@cache
def _compared_values(kind: type) -> Callable[[object], tuple] | None:
    """The values of the fields ``_stored_value_mismatches`` compares one by
    one, for a dataclass whose fields it walks; None for a type it compares
    by == alone.  Cached per type."""
    if kind in _EXACT or kind is Subgroup or not is_dataclass(kind):
        return None
    names = [f.name for f in fields(kind) if f.compare]
    if len(names) == 1:
        return lambda obj: (getattr(obj, names[0]),)
    return attrgetter(*names)


def _stored_value_mismatches(
    stored: object, derived: object, tol: float
) -> list[tuple[str, object, object]]:
    """(field path, stored, derived) wherever the two certificates differ.

    Dataclasses are compared field by field (except fields with
    ``compare=False``, which the text does not hold) and tuples item by item,
    a check labelled by its name and a summary line by its key; a float may
    differ by ``tol`` relative, anything else must be equal.  A tuple whose
    items share one type is compared in one step: characters or integers by
    ==, floats by the tolerance.
    ``same`` decides a value without naming anything, so a certificate whose
    values all match costs one comparison per stored field; the walk goes
    below a value only where ``same`` finds a difference, to name it.  A pair
    of objects reached twice (a check in ``cover.checks`` and ``checks``) is
    reported once.
    """
    out: list[tuple[str, object, object]] = []
    seen: set[tuple[int, int]] = set()

    def close(w: float, g: float) -> bool:
        return abs(w - g) <= tol * max(abs(w), abs(g))

    def same(want: object, got: object) -> bool:
        if want is got:
            return True
        kind = type(want)
        if kind in _EXACT and type(got) in _EXACT:
            return want == got
        if isinstance(want, float) or isinstance(got, float):
            return (
                (kind is Fraction or isinstance(want, (int, float)))
                and (type(got) is Fraction or isinstance(got, (int, float)))
                and close(float(want), float(got))
            )
        if kind is tuple:
            if type(got) is not tuple or len(want) != len(got):
                return False
            kinds = set(map(type, want + got))
            if len(kinds) == 1:  # one step for a tuple of one type
                first = kinds.pop()
                if first in _EXACT:
                    return want == got
                if first is float:
                    return all(map(close, want, got))
            return all(map(same, want, got))
        values = _compared_values(kind) if kind is type(got) else None
        if values is None:
            return want == got
        return all(map(same, values(want), values(got)))

    def walk(path: str, want: object, got: object) -> None:
        if same(want, got):
            return
        kind = type(want)
        if kind is tuple and type(got) is tuple and len(want) == len(got):
            for i, (w, g) in enumerate(zip(want, got)):
                if isinstance(w, tuple) and len(w) == 2 and isinstance(w[0], str) and w[0] == g[0]:
                    walk(f"{path}[{w[0]}]", w[1], g[1])  # a summary line
                else:
                    walk(f"{path}[{getattr(w, 'name', i)}]", w, g)
        elif kind is type(got) and is_dataclass(kind) and kind is not Subgroup:
            if (id(want), id(got)) not in seen:
                seen.add((id(want), id(got)))
                for f in fields(kind):
                    if f.compare:
                        walk(f"{path}.{f.name}", getattr(want, f.name), getattr(got, f.name))
        else:
            out.append((path.lstrip("."), want, got))

    walk("", stored, derived)
    return out
