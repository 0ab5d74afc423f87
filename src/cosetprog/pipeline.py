"""End-to-end pipeline with certificate emission and independent re-verification.

A run produces a PipelineCertificate: every intermediate object (model
trace, spectral data, minima, progressions, covering rounds) plus one
named pass/fail line per bound.  The certificate is self-contained: the
verifier re-checks containments, properness, isomorphisms and inequalities
from the stored objects alone and never re-runs the searches that chose
them.  Serialization is deterministic, so identical input and config give
byte-identical certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bohr import (
    CosetProgression,
    MinimaReport,
    bohr_set,
    materialize,
    progression_from_bohr,
)
from .checks import BoundCheck
from .covering import CoverInput, CoverTrace, chang_cover
from .errors import DomainError, InvariantError
from .fourier import (
    BohrSpec,
    _Cube,
    bogolyubov_bohr,
    indicator_transform,
    spec_threshold,
)
from .freiman import FreimanMap, compose, induced_difference_iso, is_freiman_iso, transport_progression
from .groups import (
    DEFAULT_ENUMERATION_CAP,
    Character,
    GroupSpec,
    Subgroup,
    kernel_of_characters,
    subgroup_closure,
)
from .models import ModelStage, ModelTrace, _assemble_trace, minimize_model
from .sumsets import DoublingReport, GroupSet, doubling, iterated_sumset, sumset
from .textio import (
    fmt_float,
    fmt_fraction,
    freiman_map_lines,
    group_set_lines,
    join_ints,
    parse_float,
    parse_fraction,
    parse_freiman_map,
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
    delta: Fraction | None = None
    tolerance: float = 1e-9
    cap: int = DEFAULT_ENUMERATION_CAP
    log_base: float = math.e
    target_density: Fraction = Fraction(1)


@dataclass(frozen=True, eq=False)
class PipelineCertificate:
    config: PipelineConfig
    input_set: GroupSet
    doubling_report: object
    model: ModelTrace
    alpha: Fraction
    threshold_rho: float
    gamma_raw: tuple[tuple[Character, float], ...]
    phi: tuple[Character, ...]
    bohr_rho: Fraction
    l4_sum: float
    l4_lower: float
    dim_bound: float
    radius_lower: float
    minima: MinimaReport | None
    progression_model: CosetProgression
    transport: FreimanMap | None
    progression: CosetProgression
    cover: CoverTrace
    checks: tuple[BoundCheck, ...]
    summary: tuple[tuple[str, str], ...]

    @property
    def all_passed(self) -> bool:
        return not any(c.failed for c in self.checks)


def _full_subgroup(spec: GroupSpec) -> Subgroup:
    gens = []
    for i, n in enumerate(spec.orders):
        if n > 1:
            coords = [0] * spec.rank
            coords[i] = 1
            gens.append(spec.element(coords))
    return Subgroup(spec, tuple(gens), np.arange(spec.cardinality, dtype=np.int64))


def run_pipeline(
    a: GroupSet, config: PipelineConfig = PipelineConfig()
) -> PipelineCertificate:
    """Doubling, model, spectral localization, extraction, transport, cover."""
    if not a:
        raise DomainError("the pipeline needs a nonempty input set")
    checks: list[BoundCheck] = []
    dbl = doubling(a)

    if config.skip_model:
        trace = _assemble_trace(config.s, a, [], dbl.k)
    else:
        trace = minimize_model(
            a, config.s, config.target_density, config.delta, config.cap
        )
    a1 = trace.final_set

    bog = bogolyubov_bohr(
        a1, cap=config.cap, tol=config.tolerance, log_base=config.log_base
    )
    checks.append(
        BoundCheck.make("spectral_dimension", bog.dim_ok, len(bog.phi), bog.dim_bound)
    )
    checks.append(
        BoundCheck.make(
            "spectral_radius", bog.radius_ok, float(bog.bohr.rho), bog.radius_lower
        )
    )
    checks.append(
        BoundCheck.make("fourth_moment_lower", bog.l4_ok, bog.l4_sum, bog.l4_lower)
    )

    bset = bohr_set(bog.bohr, config.cap)
    d22_model = iterated_sumset(a1, 2, 2)
    bohr_ok = bset.is_subset(d22_model)
    checks.append(
        BoundCheck.make("bohr_containment", bohr_ok, bset.size, d22_model.size)
    )
    if not bohr_ok:
        raise InvariantError("Bohr set escaped 2A-2A in the model group")

    if bog.bohr.dimension == 0:
        minima = None
        spec1 = a1.spec
        cp_model = CosetProgression(
            spec=spec1,
            base=spec1.zero(),
            generators=(),
            bounds=(),
            subgroup=_full_subgroup(spec1),
            proper=True,
        )
        checks.append(
            BoundCheck.make(
                "extraction_whole_group", True, spec1.cardinality, spec1.cardinality
            )
        )
    else:
        extraction = progression_from_bohr(bog.bohr, config.cap)
        minima = extraction.minima
        cp_model = extraction.progression
        checks.extend(extraction.checks)

    if trace.is_identity:
        transport = None
        cp = cp_model
    else:
        zeta = induced_difference_iso(trace.composite.inverse())
        cp = transport_progression(zeta, cp_model, assume_verified=True)
        transport = zeta
        checks.append(
            BoundCheck.make(
                "transport_dimension",
                cp.dimension == cp_model.dimension,
                cp.dimension,
                cp_model.dimension,
            )
        )
        size = materialize(cp, config.cap).size
        size_model = materialize(cp_model, config.cap).size
        checks.append(BoundCheck.make("transport_size", size == size_model, size, size_model))

    cover_input = CoverInput.build(a, cp, config.cap)
    cover = chang_cover(cover_input, config.cap)
    checks.extend(cover.checks)

    k = dbl.k
    kf = float(k)
    ref_dim = 2.0**9 * kf**3 * math.log(kf + 2, config.log_base)
    ref_exp = 2.0**14 * kf**3 * math.log(kf + 2, config.log_base) ** 2
    final_size = cover.q_materialized.size
    summary = (
        ("final-dimension", str(cover.q.dimension)),
        ("final-size", str(final_size)),
        ("input-size", str(a.size)),
        ("size-ratio", fmt_fraction(Fraction(final_size, a.size))),
        ("doubling", fmt_fraction(k)),
        ("model-group-size", str(a1.spec.cardinality)),
        ("model-density", fmt_fraction(trace.density_final)),
        ("reference-dimension-bound", fmt_float(ref_dim)),
        ("reference-size-exponent", fmt_float(ref_exp)),
    )
    return PipelineCertificate(
        config=config,
        input_set=a,
        doubling_report=dbl,
        model=trace,
        alpha=bog.alpha,
        threshold_rho=bog.threshold_rho,
        gamma_raw=tuple(zip(bog.gamma_raw.chars, bog.gamma_raw.magnitudes)),
        phi=bog.phi,
        bohr_rho=bog.bohr.rho,
        l4_sum=bog.l4_sum,
        l4_lower=bog.l4_lower,
        dim_bound=bog.dim_bound,
        radius_lower=bog.radius_lower,
        minima=minima,
        progression_model=cp_model,
        transport=transport,
        progression=cp,
        cover=cover,
        checks=tuple(checks),
        summary=summary,
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
    out.append("target-density " + fmt_fraction(c.target_density))
    out.append("delta " + ("none" if c.delta is None else fmt_fraction(c.delta)))
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
        out.append(f"kind {stage.kind}")
        if stage.gamma is not None:
            out.append("gamma " + join_ints(stage.gamma.coords))
            out.append(f"q {stage.q}")
            out.append(f"interval {stage.interval[0]} {stage.interval[1]}")
            out.append("translation " + join_ints(stage.translation.coords))
        _section(out, "map", freiman_map_lines(stage.map))
        out.append("end stage")
    _section(out, "model-set", group_set_lines(cert.model.final_set))
    out.append("end model")

    out.append("begin bogolyubov")
    out.append("alpha " + fmt_fraction(cert.alpha))
    out.append("threshold-rho " + fmt_float(cert.threshold_rho))
    _section(
        out,
        "gamma-raw",
        [f"char {join_ints(gamma.coords)} {fmt_float(mag)}" for gamma, mag in cert.gamma_raw],
    )
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

    out.append("begin transport")
    out.append(f"identity {1 if cert.transport is None else 0}")
    if cert.transport is not None:
        _section(out, "map", freiman_map_lines(cert.transport))
    out.append("end transport")

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
    for i, p in enumerate(cover.p_sets):
        out.append(f"p-size {i} {p.size}")
    _section(out, "q", progression_lines(cover.q))
    out.append(f"q-size {cover.q_materialized.size}")
    out.append("end cover")

    _section(out, "checks", [check.line() for check in cert.checks])
    _section(out, "summary", [f"{key} {value}" for key, value in cert.summary])
    return "\n".join(out) + "\n"


# --- parsing ----------------------------------------------------------------


@dataclass
class _Block:
    name: str
    lines: list[list[str]] = field(default_factory=list)
    children: list["_Block"] = field(default_factory=list)

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
        for line in self.lines:
            if line[0] == key:
                if count is not None and len(line) - 1 != count:
                    raise DomainError(
                        f"key {key!r} in section {self.name!r} needs {count} "
                        f"value(s), got {len(line) - 1}"
                    )
                return line[1:]
        raise DomainError(f"section {self.name!r} is missing key {key!r}")

    def value(self, key: str) -> str:
        return self.kv(key, 1)[0]


def _parse_blocks(rows: list[list[str]]) -> _Block:
    root = _Block("root")
    stack = [root]
    for row in rows:
        if row[0] == "begin":
            block = _Block(" ".join(row[1:]))
            stack[-1].children.append(block)
            stack.append(block)
        elif row[0] == "end":
            if len(stack) == 1 or stack[-1].name != " ".join(row[1:]):
                raise DomainError(f"unbalanced section end: {' '.join(row)}")
            stack.pop()
        else:
            stack[-1].lines.append(row)
    if len(stack) != 1:
        raise DomainError(f"unterminated section {stack[-1].name!r}")
    return root


def read_certificate(text: str) -> PipelineCertificate:
    rows = strip_lines(text)
    if not rows or " ".join(rows[0]) != CERT_HEADER:
        raise DomainError("not a certificate file")
    root = _parse_blocks(rows[1:])

    cfg = root.child("config")
    log_token = cfg.value("log-base")
    delta_token = cfg.value("delta")
    config = PipelineConfig(
        s=parse_int(cfg.value("s")),
        skip_model=cfg.value("skip-model") == "1",
        tolerance=parse_float(cfg.value("tolerance")),
        cap=parse_int(cfg.value("cap")),
        log_base=math.e if log_token == "e" else parse_float(log_token),
        target_density=parse_fraction(cfg.value("target-density")),
        delta=None if delta_token == "none" else parse_fraction(delta_token),
    )

    input_set = parse_group_set(root.child("input").lines)

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
        kind = sb.value("kind")
        phi = parse_freiman_map(sb.child("map").lines)
        gamma = None
        q = None
        interval = None
        translation = None
        if kind == "spectral":
            spec_before = phi.domain.spec
            gamma = spec_before.character(parse_ints(sb.kv("gamma")))
            q = parse_int(sb.value("q"))
            interval = parse_ints(sb.kv("interval", 2))
            translation = spec_before.element(parse_ints(sb.kv("translation")))
        stages.append(
            ModelStage(
                kind=kind,
                set_before=phi.domain,
                set_after=phi.image(),
                map=phi,
                gamma=gamma,
                q=q,
                interval=interval,
                translation=translation,
            )
        )
    final_set = parse_group_set(model_b.child("model-set").lines)
    s = config.s
    composite = FreimanMap.identity(input_set, s)
    for stage in stages:
        composite = compose(stage.map, composite)
    trace = ModelTrace(
        s=s,
        initial_set=input_set,
        stages=tuple(stages),
        final_set=final_set,
        composite=composite,
        density_initial=parse_fraction(model_b.value("density-initial")),
        density_final=parse_fraction(model_b.value("density-final")),
        prop_density_bound=parse_float(model_b.value("density-bound")),
        meets_density_bound=True,
    )

    bog_b = root.child("bogolyubov")
    spec1 = final_set.spec
    gamma_raw = tuple(
        (spec1.character(parse_ints(line[1:-1])), parse_float(line[-1]))
        for line in bog_b.child("gamma-raw").lines
    )
    phi_chars = tuple(
        spec1.character(parse_ints(line[1:])) for line in bog_b.child("phi").lines
    )

    minima = None
    min_b = root.maybe_child("minima")
    if min_b is not None:
        stripped = tuple(
            spec1.character(parse_ints(line[1:]))
            for line in min_b.child("stripped").lines
        )
        sub_gens = [
            spec1.element(parse_ints(line[1:])) for line in min_b.child("subgroup").lines
        ]
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
            vectors.append(tuple(parse_fraction(t) for t in line[3:pi]))
            preimages.append(spec1.element(parse_ints(line[pi + 1 :])))
        minima = MinimaReport(
            spec=spec1,
            chars=phi_chars,
            stripped=stripped,
            denominator=parse_int(min_b.value("denominator")),
            lambdas=tuple(lambdas),
            vectors=tuple(vectors),
            preimages=tuple(preimages),
            subgroup=subgroup_closure(spec1, sub_gens),
            det=parse_fraction(min_b.value("det")),
        )

    cp_model = parse_progression(root.child("progression-model").lines)
    tr_b = root.child("transport")
    transport = None
    if tr_b.value("identity") == "0":
        transport = parse_freiman_map(tr_b.child("map").lines)
    cp = parse_progression(root.child("progression").lines)

    cover_b = root.child("cover")
    mk = parse_int(cover_b.value("mk"))
    t = parse_int(cover_b.value("t"))
    eta = parse_fraction(cover_b.value("eta"))
    r_sets = []
    s_sets = []
    i = 0
    while cover_b.maybe_child(f"r{i}") is not None:
        r_sets.append(parse_group_set(cover_b.child(f"r{i}").lines))
        i += 1
    i = 0
    while cover_b.maybe_child(f"s{i}") is not None:
        s_sets.append(parse_group_set(cover_b.child(f"s{i}").lines))
        i += 1
    p_sizes = {}
    for line in cover_b.lines:
        if line[0] == "p-size":
            if len(line) != 3:
                raise DomainError(f"p-size line must read 'p-size i n': {' '.join(line)}")
            p_sizes[parse_int(line[1])] = parse_int(line[2])
    q_prog = parse_progression(cover_b.child("q").lines)
    parse_int(cover_b.value("q-size"))  # read for its form only; verify recomputes |Q+H|

    realized = materialize(cp, config.cap)
    cover_input = CoverInput(
        set=input_set,
        progression=cp,
        realized=realized,
        eta=eta,
        dimension=cp.dimension,
        doubling=dbl,
    )
    p_sets = [realized]
    for i in range(t):
        p_sets.append(sumset(p_sets[i], s_sets[i]))
    q_realized = materialize(q_prog, config.cap)
    checks = []
    for line in root.child("checks").lines:
        if line[0] == "check":
            if len(line) != 5:
                raise DomainError(
                    f"check line must read 'check name status lhs rhs': {' '.join(line)}"
                )
            checks.append(BoundCheck(*line[1:]))
    cover = CoverTrace(
        input=cover_input,
        mk=mk,
        t=t,
        r_sets=tuple(r_sets),
        s_sets=tuple(s_sets),
        p_sets=tuple(p_sets),
        q=q_prog,
        q_materialized=q_realized,
        checks=tuple(c for c in checks if c.name.startswith("cover_")),
    )
    summary = tuple(
        (line[0], " ".join(line[1:])) for line in root.child("summary").lines
    )
    stored_p_sizes = tuple(p_sizes.get(i, -1) for i in range(t + 1))
    cert = PipelineCertificate(
        config=config,
        input_set=input_set,
        doubling_report=dbl,
        model=trace,
        alpha=parse_fraction(bog_b.value("alpha")),
        threshold_rho=parse_float(bog_b.value("threshold-rho")),
        gamma_raw=gamma_raw,
        phi=phi_chars,
        bohr_rho=parse_fraction(bog_b.value("bohr-rho")),
        l4_sum=parse_float(bog_b.value("l4-sum")),
        l4_lower=parse_float(bog_b.value("l4-lower")),
        dim_bound=parse_float(bog_b.value("dim-bound")),
        radius_lower=parse_float(bog_b.value("radius-lower")),
        minima=minima,
        progression_model=cp_model,
        transport=transport,
        progression=cp,
        cover=cover,
        checks=tuple(checks),
        summary=summary,
    )
    object.__setattr__(cert, "_stored_p_sizes", stored_p_sizes)
    return cert


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
    """Re-check every stored claim without re-running any search.

    Containments, properness counts and isomorphisms are recomputed from
    the stored objects; maximality and greedy choices are checked as
    properties (nothing is re-searched).  All failures are collected, not
    short-circuited.
    """
    entries: list[VerificationEntry] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        entries.append(VerificationEntry(name, bool(ok), detail))

    cfg = cert.config
    tol = cfg.tolerance
    a = cert.input_set

    dbl = doubling(a)
    add(
        "doubling",
        dbl.set_size == cert.doubling_report.set_size
        and dbl.sumset_size == cert.doubling_report.sumset_size
        and dbl.k == cert.doubling_report.k,
        f"k={dbl.k}",
    )
    k = dbl.k

    # model chain
    current = a
    chain_ok = True
    for i, stage in enumerate(cert.model.stages):
        stage_ok = stage.map.domain == current
        if stage.kind == "spectral":
            stage_ok &= stage.gamma is not None and stage.gamma.order() == stage.q
            stage_ok &= stage.interval is not None and 4 * cfg.s * stage.interval[1] < stage.q
        iso = is_freiman_iso(stage.map, cfg.s)
        add(f"model_stage_{i}", stage_ok and iso.ok, stage.kind)
        chain_ok &= stage_ok and iso.ok
        current = stage.map.image()
    add("model_final_set", current == cert.model.final_set)
    if cert.model.stages:
        comp = is_freiman_iso(cert.model.composite, cfg.s)
        add("model_composite", comp.ok)
    a1 = cert.model.final_set

    # spectral stage
    spectrum = indicator_transform(a1, cfg.cap)
    add("spectrum_alpha", spectrum.density == cert.alpha, f"alpha={cert.alpha}")
    rho_expected = 1.0 / (2.0 * math.sqrt(float(k)))
    add(
        "threshold_rho",
        abs(cert.threshold_rho - rho_expected) <= tol * max(1.0, rho_expected),
    )
    tset = spec_threshold(spectrum, cert.threshold_rho, tol)
    stored_raw = {g.coords for g, _ in cert.gamma_raw}
    add(
        "threshold_set",
        stored_raw == {g.coords for g in tset.chars},
        f"{len(stored_raw)} characters",
    )
    phi = cert.phi
    add("phi_inside_raw", all(g.coords in stored_raw for g in phi))
    cube = _Cube(a1.spec, phi)
    i = cube.first_inside
    add(
        "phi_dissociated",
        i is None,
        "" if i is None else f"{phi[i]!r} in the cube of phi[:{i}], witness {cube.witness()}",
    )
    outside = next((g for g, _ in cert.gamma_raw if g not in cube), None)
    add(
        "phi_maximal",
        outside is None,
        "" if outside is None else f"{outside!r} outside the cube of phi",
    )
    d = len(phi)
    add("bohr_radius_rule", cert.bohr_rho == Fraction(1, 6 * max(d, 1)))
    l4 = float(np.sum(spectrum.magnitudes**4))
    alpha_f = float(cert.alpha)
    add("l4_bound", l4 >= alpha_f**3 / float(k) * (1 - tol), f"l4={l4:.6g}")
    logterm = 0.0 if cert.alpha >= 1 else math.log(1 / alpha_f, cfg.log_base)
    add("dim_bound", d <= 8 * float(k) * logterm + tol * max(1.0, 8 * float(k) * logterm))

    bspec = BohrSpec(a1.spec, phi, cert.bohr_rho)
    bset = bohr_set(bspec, cfg.cap)
    d22_model = iterated_sumset(a1, 2, 2)
    add("bohr_containment", bset.is_subset(d22_model), f"|B|={bset.size}")

    # extraction
    cp1 = cert.progression_model
    realized1 = materialize(cp1, cfg.cap)
    if cert.minima is None:
        add("extraction_whole_group", d == 0 and realized1.size == a1.spec.cardinality)
    else:
        m = cert.minima
        add("kernel_match", m.subgroup == kernel_of_characters(a1.spec, phi, cfg.cap))
        vec_ok = True
        for lam, vec, pre in zip(m.lambdas, m.vectors, m.preimages):
            if max(abs(v) for v in vec) > lam:
                vec_ok = False
            for gamma, v in zip(m.chars, vec):
                diff = gamma.arg_fraction(pre) - v
                if diff.denominator != 1:
                    vec_ok = False
        add("minima_vectors", vec_ok)
        add("minima_independent", m.vectors_independent())
        add(
            "minkowski",
            m.minkowski_holds(),
            f"prod={math.prod(m.lambdas, start=Fraction(1))} det={m.det}",
        )
        add("minima_chars", tuple(c.coords for c in m.chars) == tuple(c.coords for c in phi))
        expect_pairs = []
        for pre, lam in zip(m.preimages, m.lambdas):
            lj = math.floor(cert.bohr_rho / (len(m.lambdas) * lam))
            if lj >= 1:
                expect_pairs.append((pre.coords, (-lj, lj)))
        got_pairs = [
            (g.coords, b) for g, b in zip(cp1.generators, cp1.bounds)
        ]
        add("extraction_bounds", got_pairs == expect_pairs)
        add("extraction_proper", realized1.size == cp1.formal_size)
        add("extraction_contained", realized1.is_subset(bset))
        add(
            "extraction_size",
            realized1.size >= (cert.bohr_rho / d) ** d * a1.spec.cardinality,
        )

    # transport
    if cert.transport is None:
        add("transport_identity", cert.model.is_identity and cp1 is not None
            and cert.progression.spec == cp1.spec)
    else:
        zeta = cert.transport
        add("transport_iso", is_freiman_iso(zeta, 2).ok)
        add("transport_domain", zeta.domain == d22_model)
        realized0 = materialize(cert.progression, cfg.cap)
        expected = GroupSet(zeta.target, zeta.apply_indices(realized1.indices))
        add("transport_image", realized0 == expected)
        add("transport_dimension", cert.progression.dimension == cp1.dimension)

    # covering
    cp0 = cert.progression
    realized0 = materialize(cp0, cfg.cap)
    d22 = iterated_sumset(a, 2, 2)
    add("cover_input_proper", realized0.size == cp0.formal_size)
    add("cover_input_contained", realized0.is_subset(d22))
    cover = cert.cover
    add("cover_eta", cover.input.eta == Fraction(realized0.size, a.size))
    add("cover_mk", cover.mk == math.ceil(2 * k))
    t = cover.t
    add("cover_rounds", len(cover.r_sets) == t + 1 and len(cover.s_sets) == t)
    p_current = realized0
    stored_sizes = getattr(cert, "_stored_p_sizes", None)
    for i in range(t + 1):
        r_i = cover.r_sets[i]
        union = sumset(p_current, r_i)
        add(
            f"cover_round_{i}_disjoint",
            r_i.is_subset(a) and union.size == p_current.size * r_i.size,
        )
        maximal_r = True
        covered = np.zeros(a.spec.cardinality, dtype=bool)
        covered[union.indices] = True
        for x in a.indices:
            if r_i.contains_index(int(x)):
                continue
            translate = a.spec.add_scalar(p_current.indices, int(x))
            if not covered[translate].any():
                maximal_r = False
                break
        add(f"cover_round_{i}_maximal", maximal_r)
        if stored_sizes is not None and i < len(stored_sizes):
            add(f"cover_round_{i}_psize", stored_sizes[i] == p_current.size)
        if i < t:
            s_i = cover.s_sets[i]
            add(
                f"cover_round_{i}_batch",
                s_i.size == cover.mk and s_i.is_subset(r_i) and r_i.size > cover.mk,
            )
            p_next = sumset(p_current, s_i)
            add(
                f"cover_round_{i}_growth",
                p_next.size == p_current.size * s_i.size,
            )
            p_current = p_next
    add("cover_rt_small", cover.r_sets[t].size <= cover.mk)
    envelope = iterated_sumset(a, t + 2, 2)
    add("cover_envelope", p_current.is_subset(envelope))
    add("cover_iterate_size", p_current.size <= k ** (t + 4) * a.size)
    add("cover_termination", cover.input.eta * Fraction(2) ** t <= k**4)

    # q assembly
    q = cover.q
    expect_gens = [g.coords for g in cp0.generators]
    expect_bounds = [(lo - hi, hi - lo) for lo, hi in cp0.bounds]
    for s_i in cover.s_sets:
        for e in s_i.elements():
            expect_gens.append(e.coords)
            expect_bounds.append((-1, 1))
    for e in cover.r_sets[t].elements():
        expect_gens.append(e.coords)
        expect_bounds.append((-1, 1))
    add(
        "cover_q_assembly",
        [g.coords for g in q.generators] == expect_gens
        and list(q.bounds) == expect_bounds
        and q.subgroup == cp0.subgroup
        and q.base.is_zero(),
    )
    q_realized = materialize(q, cfg.cap)
    add("cover_q_size", q_realized.size == cover.q_materialized.size)
    add("final_containment", a.is_subset(q_realized), f"|Q+H|={q_realized.size}")
    dim_bound = cp0.dimension + 2 * cover.mk * (t + 1)
    add("cover_dimension", q.dimension <= dim_bound)
    ratio = k**4 / cover.input.eta
    high = (1 << cp0.dimension) * ratio ** math.ceil(5 * k) * a.size
    add("cover_size_bound", q_realized.size <= high, "inconclusive band allowed")

    add("stored_checks", not any(c.failed for c in cert.checks))
    return VerificationReport(tuple(entries))
