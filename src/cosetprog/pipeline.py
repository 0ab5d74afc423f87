"""End-to-end pipeline with certificate emission and independent re-verification.

A run produces a PipelineCertificate: every intermediate object (model
trace, spectral data, minima, progressions, covering rounds) plus one
named pass/fail line per bound.  The certificate is self-contained: the
verifier judges the search choices (the model stages, Phi, the minima and
the translates) for the properties their searches guarantee, and derives
every other object from them with the functions the run used, never
re-running a search.  A model stage is stored as its choice (gamma, q,
interval) alone; its map, and the transport map the chain induces on
2A' - 2A', are derived, not stored.  Every check is evaluated once, on the
derived objects.  Serialization is deterministic, so identical input and
config give byte-identical certificates, and the text is the one
definition of what a certificate stores: the verifier writes the stored
and the derived certificate and compares the two texts, which is how a
stored copy of a derived object is judged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from difflib import SequenceMatcher
from fractions import Fraction

import numpy as np

from .bohr import (
    BohrExtraction,
    CosetProgression,
    MinimaReport,
    bohr_set,
    materialize,
    minima_extraction,
    minima_frame,
    progression_from_bohr,
    whole_group_extraction,
)
from .checks import BoundCheck, _fmt, parse_scalar
from .covering import CoverInput, CoverTrace, chang_cover, cover_trace, judge_cover
from .errors import DomainError, InvariantError
from .fourier import (
    TOLERANCE,
    BogolyubovReport,
    Cube,
    bogolyubov_bohr,
    bogolyubov_report,
    bogolyubov_threshold,
    indicator_transform,
)
from .freiman import induced_difference_iso, transport_progression
from .groups import Character
from .models import (
    MODEL_ORDER,
    ModelStage,
    ModelTrace,
    composite_fault,
    minimize_model,
    model_trace,
    shrink_model_step,
)
from .sumsets import DoublingReport, GroupSet, doubling, iterated_sumset
from .textio import (
    Shapes,
    character_rows,
    element_rows,
    fmt_float,
    fmt_fraction,
    group_set_lines,
    join_ints,
    parse_flag,
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
    skip_model: bool = False


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
        trace = model_trace(MODEL_ORDER, a, [], dbl.k)
    else:
        trace = minimize_model(a, MODEL_ORDER)
    a1 = trace.final_set

    bog = bogolyubov_bohr(a1)
    bset = bohr_set(bog.bohr)
    d22 = iterated_sumset(a1, 2, 2)
    bohr_check = bohr_containment(bset, d22)
    if bohr_check.failed:
        raise InvariantError("Bohr set escaped 2A-2A in the model group")

    if bog.bohr.dimension == 0:
        extraction = whole_group_extraction(bog.bohr)
    else:
        extraction = progression_from_bohr(bog.bohr, bset)

    cp = extraction.progression
    if not trace.is_identity:
        cp = transport_progression(induced_difference_iso(trace.inverse), cp)

    cover = chang_cover(CoverInput.build(a, cp))
    return _certificate(config, a, dbl, trace, bog, bohr_check, extraction, cp, cover)


def bohr_containment(bset: GroupSet, d22: GroupSet) -> BoundCheck:
    """The Bohr set ``bset`` inside ``d22`` = 2A' - 2A' for the model set A'."""
    return BoundCheck.make("bohr_containment", bset.is_subset(d22), bset.size, d22.size)


def _summary(
    a: GroupSet, dbl: DoublingReport, trace: ModelTrace, cover: CoverTrace
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
        ("reference-dimension-bound", 2.0**9 * kf**3 * math.log(kf + 2)),
        ("reference-size-exponent", 2.0**14 * kf**3 * math.log(kf + 2) ** 2),
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
        size, size_model = (materialize(p).size for p in (cp, cp_model))
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
        summary=_summary(a, dbl, trace, cover),
    )


# --- serialization ----------------------------------------------------------


def _section(out: list[str], name: str, lines: list[str]) -> None:
    out.append(f"begin {name}")
    out.extend(lines)
    out.append(f"end {name}")


def write_certificate(cert: PipelineCertificate) -> str:
    out: list[str] = [CERT_HEADER]
    out.append("begin config")
    out.append(f"skip-model {1 if cert.config.skip_model else 0}")
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
    it counts, a subgroup size that contradicts its generators, or a
    ``progression``, ``q``, ``r<i>`` or ``s<i>`` section (and, with no
    stage, the ``model-set``) in a group other than the input's is a
    DomainError.  It reads a block of rows at a time, and the only set it
    builds beyond those written out is each named subgroup's closure: the
    covered set P + H is not in the text, so the cover input's
    ``realized`` is left None, and no map is built, so each model stage's
    ``map`` is None.  Each group and each subgroup the text names is built
    once.
    """
    rows = strip_lines(text)
    if not rows or " ".join(rows[0]) != CERT_HEADER:
        raise DomainError("not a certificate file")
    root = _parse_blocks(rows[1:])
    shapes = Shapes()

    cfg = root.child("config")  # other keys, such as an older certificate's, are not read
    config = PipelineConfig(skip_model=parse_flag(["skip-model", *cfg.kv("skip-model")]))

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
    if config.skip_model and stages:
        raise DomainError(f"a skip-model certificate holds {len(stages)} model stage(s)")
    identity = "0" if stages else "1"
    if parse_int(model_b.value("stages")) != len(stages) or model_b.value("identity") != identity:
        raise DomainError(f"the model section does not hold {len(stages)} stage(s)")
    final_set = parse_group_set(model_b.child("model-set").lines, shapes)
    trace = ModelTrace(
        s=MODEL_ORDER,
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
    # the sections that must lie in the input's group, in text order; the
    # model-set must only when there is no stage
    groups = {} if stages else {"model-set": final_set.spec}
    groups["progression"] = cp.spec
    groups.update((f"r{i}", x.spec) for i, x in enumerate(r_sets))
    groups.update((f"s{i}", x.spec) for i, x in enumerate(s_sets))
    groups["q"] = cover.q.spec
    for name, spec in groups.items():
        if spec != input_set.spec:
            raise DomainError(
                f"the {name} section is in {spec}, not in the input's group {input_set.spec}"
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

    Only the search choices (the stages, Phi, the minima, the translates R_i
    and S_i) are taken from the certificate, and each is checked for the
    properties its search guarantees.  Each stage's map is derived from its
    choice by ``shrink_model_step``, which checks the choice; a stage it
    rejects fails ``model_stage_<i>`` with its message, and the chain stops
    there; a chain that derives into another group than the stored
    ``model-set``'s fails ``model_group``, naming both; the chain's composite
    alone is checked as a Freiman 8-isomorphism (``model_composite``).
    Every other object is derived from the choices with the functions
    ``run_pipeline`` uses: the model set, the spectral data, the Bohr set,
    P + H from the minima, its transport (one ``transport`` entry) and Q.
    Each check becomes one entry under its own name, evaluated once on the
    derived objects.  Then the stored and the derived certificate are both
    written and compared as text, so a stored copy of a derived object is
    judged by the text alone: each run of lines that differs is one
    ``stored_value`` entry naming its sections and quoting both lines,
    where a float token may differ by ``TOLERANCE`` relative and every
    other token must match.  So that later failures are still collected, a
    stored object that is not a choice is read in two cases only: the
    stored model trace after a stage that does not derive, a ``model_group``
    or a ``model_composite`` failure, each of which fails ``transport`` too,
    and the stored ``progression`` after a ``transport`` failure.  A failing
    entry says why in its detail.  The translates are judged by
    ``judge_cover``: R_i is maximal when A lies in R_i + (P_i - P_i).
    """
    entries: list[VerificationEntry] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        entries.append(VerificationEntry(name, bool(ok), detail))

    a = cert.input_set
    dbl = doubling(a)

    # model chain: each stage's map derived from its choice
    stages: list[ModelStage] = []
    for i, choice in enumerate(cert.model.stages):
        current = stages[-1].set_after if stages else a
        try:
            stages.append(
                shrink_model_step(current, MODEL_ORDER, choice.gamma, choice.q, choice.interval)
            )
        except DomainError as exc:
            add(f"model_stage_{i}", False, str(exc))
            break
        add(f"model_stage_{i}", True)
    # a chain that stops short, ends outside the stored model-set's group or
    # fails the composite check derives no trace: the stored one stands in
    trace = model_trace(MODEL_ORDER, a, stages, dbl.k)
    chain_fault = "" if len(stages) == len(cert.model.stages) else "the model chain was not derived"
    ends, stored = trace.final_set.spec, cert.model.final_set.spec
    if not chain_fault and ends != stored:
        chain_fault = f"the derived chain ends in {ends}, the stored model-set is in {stored}"
        add("model_group", False, chain_fault)
    if not chain_fault and stages:
        chain_fault = composite_fault(trace)
        add("model_composite", not chain_fault, chain_fault)
    if chain_fault:
        trace = cert.model
    a1 = trace.final_set

    # spectral stage: Phi inside the threshold set, dissociated and maximal
    spectrum = indicator_transform(a1)
    dbl1 = doubling(a1)
    tset = bogolyubov_threshold(spectrum, dbl1.k)
    bog = bogolyubov_report(dbl1, spectrum, tset, cert.phi)
    phi = cert.phi
    inside = np.isin([g.index for g in phi], tset.indices)
    stray = None if inside.all() else phi[int(np.argmin(inside))]
    add(
        "phi_inside_raw",
        stray is None,
        "" if stray is None else f"{stray!r} has magnitude {fmt_float(spectrum.magnitude(stray))}"
        f" below the threshold {fmt_float(tset.rho * float(tset.alpha) * (1 - TOLERANCE))}",
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
    bset = bohr_set(bog.bohr)
    d22 = iterated_sumset(a1, 2, 2)
    bohr_check = bohr_containment(bset, d22)

    # extraction: the minima's vectors judged, then P + H derived from them
    if cert.minima is None:
        extraction = whole_group_extraction(bog.bohr)
    else:
        m = cert.minima
        minima = replace(
            minima_frame(phi), lambdas=m.lambdas, vectors=m.vectors, preimages=m.preimages
        )
        fault = _minima_vectors_fault(minima)
        add("minima_vectors", not fault, fault)
        i = minima.first_dependent()
        add(
            "minima_independent",
            i is None,
            "" if i is None else f"minimum {i}'s vector lies in the span of the ones before it",
        )
        extraction = minima_extraction(bog.bohr, minima, bset)

    # transport: P + H carried back by the map the chain induces on 2A' - 2A'
    cp = extraction.progression
    if not trace.is_identity:
        fault = chain_fault
        if not fault:
            try:
                cp = transport_progression(induced_difference_iso(trace.inverse), cp)
            except DomainError as exc:
                fault = str(exc)
        add("transport", not fault, fault)
        if fault:
            cp = cert.progression

    # covering rounds: the input and each stored round judged in covering.py
    cover_input = CoverInput.derive(a, cp, dbl)
    p_sets, faults = judge_cover(cover_input, cert.cover.r_sets, cert.cover.s_sets)
    for name, fault in faults:
        add(name, not fault, fault)
    derived = _certificate(
        cert.config, a, dbl, trace, bog, bohr_check, extraction, cp,
        cover_trace(cover_input, cert.cover.r_sets, cert.cover.s_sets, p_sets),
    )
    for check in derived.checks:
        add(check.name, not check.failed, f"{check.status} {_fmt(check.lhs)} {_fmt(check.rhs)}")
    for detail in _text_mismatches(write_certificate(cert), write_certificate(derived)):
        add("stored_value", False, detail)
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


def _text_mismatches(stored: str, derived: str) -> list[str]:
    """One detail per run of lines in which two certificate texts differ.

    The lines are aligned by ``difflib``, so a section with more or fewer
    lines on one side is one run.  A run with as many lines on each side is
    compared line by line, and a pair that agrees within ``_same_line``'s
    tolerance is no difference and splits the run.  A detail names the
    sections open at the run and quotes its first line on each side, ``''``
    for a side with none.
    """
    if stored == derived:
        return []
    a, b = stored.splitlines(), derived.splitlines()
    details = []
    for tag, i1, i2, j1, j2 in SequenceMatcher(None, a, b).get_opcodes():
        if tag == "equal":
            continue
        if i2 - i1 == j2 - j1:
            same = [_same_line(x, y) for x, y in zip(a[i1:i2], b[j1:j2])]
            starts = [k for k, ok in enumerate(same) if not ok and (k == 0 or same[k - 1])]
            runs = [(a[i1 + k], b[j1 + k], i1 + k) for k in starts]
        else:
            runs = [(a[i1] if i1 < i2 else "", b[j1] if j1 < j2 else "", i1)]
        for x, y, at in runs:
            details.append(f"{_open_sections(a[:at])}: stored {x!r}, derived {y!r}")
    return details


def _open_sections(lines: list[str]) -> str:
    """The sections still open after ``lines``, outermost first, joined by
    ``/``; ``root`` if none is."""
    stack = []
    for line in lines:
        if line.startswith("begin "):
            stack.append(line[len("begin "):])
        elif line.startswith("end ") and stack:
            stack.pop()
    return "/".join(stack) or "root"


def _same_line(stored: str, derived: str) -> bool:
    """Two lines agree if their tokens do, pair by pair: equal, or numbers
    within ``TOLERANCE`` relative of which at least one is a float token."""
    x, y = stored.split(), derived.split()
    return len(x) == len(y) and all(map(_same_token, x, y))


def _same_token(stored: str, derived: str) -> bool:
    if stored == derived:
        return True
    try:
        u, v = parse_scalar(stored), parse_scalar(derived)
        if isinstance(u, Fraction) and isinstance(v, Fraction):
            return False
        return math.isclose(u, v, rel_tol=TOLERANCE)
    except (DomainError, OverflowError):
        return False
