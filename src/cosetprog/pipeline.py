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
    GroupElement,
    GroupSpec,
    Subgroup,
    kernel_of_characters,
)
from .models import ModelStage, ModelTrace, _assemble_trace, minimize_model
from .sumsets import GroupSet, doubling, iterated_sumset, sumset
from .textio import (
    fmt_float,
    fmt_fraction,
    parse_fraction,
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
        checks.append(
            BoundCheck.make(
                "transport_size",
                materialize(cp, config.cap).size == materialize(cp_model, config.cap).size,
                materialize(cp, config.cap).size,
                materialize(cp_model, config.cap).size,
            )
        )

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


def _w_orders(spec: GroupSpec) -> str:
    return " ".join(str(n) for n in spec.orders)


def _w_coords(coords) -> str:
    return " ".join(str(int(c)) for c in coords)


def _w_set(out: list[str], name: str, a: GroupSet) -> None:
    out.append(f"begin {name}")
    out.append("group " + _w_orders(a.spec))
    for row in a.coords():
        out.append("elem " + _w_coords(row))
    out.append(f"end {name}")


def _w_map(out: list[str], name: str, phi: FreimanMap) -> None:
    out.append(f"begin {name}")
    out.append("source " + _w_orders(phi.domain.spec))
    out.append("target " + _w_orders(phi.target))
    out.append(f"order {phi.order}")
    src, tgt = phi.domain.spec, phi.target
    for i, j in phi.pairs():
        out.append(f"pair {_w_coords(src.coords_of(i))} -> {_w_coords(tgt.coords_of(j))}")
    out.append(f"end {name}")


def _w_progression(out: list[str], name: str, cp: CosetProgression) -> None:
    out.append(f"begin {name}")
    out.append("group " + _w_orders(cp.spec))
    out.append("base " + _w_coords(cp.base.coords))
    for g, (lo, hi) in zip(cp.generators, cp.bounds):
        out.append(f"gen {_w_coords(g.coords)} {lo} {hi}")
    out.append("subgroup")
    for g in cp.subgroup.generators:
        out.append("elem " + _w_coords(g.coords))
    out.append(f"proper {1 if cp.proper else 0}")
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

    _w_set(out, "input", cert.input_set)

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
            out.append("gamma " + _w_coords(stage.gamma.coords))
            out.append(f"q {stage.q}")
            out.append(f"interval {stage.interval[0]} {stage.interval[1]}")
            out.append("translation " + _w_coords(stage.translation.coords))
        _w_map(out, "map", stage.map)
        out.append("end stage")
    _w_set(out, "model-set", cert.model.final_set)
    out.append("end model")

    out.append("begin bogolyubov")
    out.append("alpha " + fmt_fraction(cert.alpha))
    out.append("threshold-rho " + fmt_float(cert.threshold_rho))
    out.append("begin gamma-raw")
    for gamma, mag in cert.gamma_raw:
        out.append(f"char {_w_coords(gamma.coords)} {fmt_float(mag)}")
    out.append("end gamma-raw")
    out.append("begin phi")
    for gamma in cert.phi:
        out.append("char " + _w_coords(gamma.coords))
    out.append("end phi")
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
        out.append("begin stripped")
        for gamma in m.stripped:
            out.append("char " + _w_coords(gamma.coords))
        out.append("end stripped")
        out.append("begin subgroup")
        for g in m.subgroup.generators:
            out.append("elem " + _w_coords(g.coords))
        out.append("end subgroup")
        out.append(f"subgroup-size {m.subgroup.order}")
        out.append("det " + fmt_fraction(m.det))
        for lam, vec, pre in zip(m.lambdas, m.vectors, m.preimages):
            out.append(
                "minimum "
                + fmt_fraction(lam)
                + " vector "
                + " ".join(fmt_fraction(v) for v in vec)
                + " preimage "
                + _w_coords(pre.coords)
            )
        out.append("end minima")

    _w_progression(out, "progression-model", cert.progression_model)

    out.append("begin transport")
    out.append(f"identity {1 if cert.transport is None else 0}")
    if cert.transport is not None:
        _w_map(out, "map", cert.transport)
    out.append("end transport")

    _w_progression(out, "progression", cert.progression)

    cover = cert.cover
    out.append("begin cover")
    out.append(f"mk {cover.mk}")
    out.append(f"t {cover.t}")
    out.append("eta " + fmt_fraction(cover.input.eta))
    for i, r in enumerate(cover.r_sets):
        _w_set(out, f"r{i}", r)
    for i, s in enumerate(cover.s_sets):
        _w_set(out, f"s{i}", s)
    for i, p in enumerate(cover.p_sets):
        out.append(f"p-size {i} {p.size}")
    _w_progression(out, "q", cover.q)
    out.append(f"q-size {cover.q_materialized.size}")
    out.append("end cover")

    out.append("begin checks")
    for check in cert.checks:
        out.append(check.line())
    out.append("end checks")

    out.append("begin summary")
    for key, value in cert.summary:
        out.append(f"{key} {value}")
    out.append("end summary")
    return "\n".join(out) + "\n"


# --- parsing ----------------------------------------------------------------


@dataclass
class _Block:
    name: str
    lines: list[list[str]] = field(default_factory=list)
    children: list["_Block"] = field(default_factory=list)

    def child(self, name: str) -> "_Block":
        for c in self.children:
            if c.name == name:
                return c
        raise DomainError(f"certificate is missing section {name!r}")

    def maybe_child(self, name: str) -> "_Block | None":
        for c in self.children:
            if c.name == name:
                return c
        return None

    def kv(self, key: str) -> list[str]:
        for line in self.lines:
            if line[0] == key:
                return line[1:]
        raise DomainError(f"section {self.name!r} is missing key {key!r}")


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


def _r_set(block: _Block) -> GroupSet:
    spec = GroupSpec(tuple(int(t) for t in block.kv("group")))
    coords = [tuple(int(t) for t in line[1:]) for line in block.lines if line[0] == "elem"]
    return GroupSet.from_coords(spec, coords)


def _r_map(block: _Block) -> FreimanMap:
    source = GroupSpec(tuple(int(t) for t in block.kv("source")))
    target = GroupSpec(tuple(int(t) for t in block.kv("target")))
    order = int(block.kv("order")[0])
    pairs = []
    for line in block.lines:
        if line[0] != "pair":
            continue
        arrow = line.index("->")
        x = source.index_of(tuple(int(t) for t in line[1:arrow]))
        y = target.index_of(tuple(int(t) for t in line[arrow + 1 :]))
        pairs.append((x, y))
    domain = GroupSet(source, np.array([x for x, _ in pairs], dtype=np.int64))
    return FreimanMap(domain, target, dict(pairs), order)


def _r_progression(block: _Block) -> CosetProgression:
    from .groups import subgroup_closure

    spec = GroupSpec(tuple(int(t) for t in block.kv("group")))
    k = spec.rank
    base = spec.zero()
    gens: list[GroupElement] = []
    bounds: list[tuple[int, int]] = []
    sub_gens: list[GroupElement] = []
    proper = False
    in_subgroup = False
    for line in block.lines:
        if line[0] == "base":
            base = spec.element([int(t) for t in line[1:]])
        elif line[0] == "gen":
            gens.append(spec.element([int(t) for t in line[1 : 1 + k]]))
            bounds.append((int(line[1 + k]), int(line[2 + k])))
        elif line[0] == "subgroup":
            in_subgroup = True
        elif line[0] == "elem" and in_subgroup:
            sub_gens.append(spec.element([int(t) for t in line[1:]]))
        elif line[0] == "proper":
            proper = line[1] == "1"
    subgroup = subgroup_closure(spec, sub_gens)
    return CosetProgression(
        spec=spec,
        base=base,
        generators=tuple(gens),
        bounds=tuple(bounds),
        subgroup=subgroup,
        proper=proper,
    )


def read_certificate(text: str) -> PipelineCertificate:
    rows = strip_lines(text)
    if not rows or " ".join(rows[0]) != CERT_HEADER:
        raise DomainError("not a certificate file")
    root = _parse_blocks(rows[1:])

    cfg = root.child("config")
    log_token = cfg.kv("log-base")[0]
    delta_token = cfg.kv("delta")[0]
    config = PipelineConfig(
        s=int(cfg.kv("s")[0]),
        skip_model=cfg.kv("skip-model")[0] == "1",
        tolerance=float(cfg.kv("tolerance")[0]),
        cap=int(cfg.kv("cap")[0]),
        log_base=math.e if log_token == "e" else float(log_token),
        target_density=parse_fraction(cfg.kv("target-density")[0]),
        delta=None if delta_token == "none" else parse_fraction(delta_token),
    )

    input_set = _r_set(root.child("input"))

    dbl_b = root.child("doubling")
    from .sumsets import DoublingReport

    dbl = DoublingReport(
        set_size=int(dbl_b.kv("set-size")[0]),
        sumset_size=int(dbl_b.kv("sumset-size")[0]),
        k=parse_fraction(dbl_b.kv("k")[0]),
    )

    model_b = root.child("model")
    stages: list[ModelStage] = []
    current = input_set
    for sb in model_b.children:
        if sb.name != "stage":
            continue
        kind = sb.kv("kind")[0]
        phi = _r_map(sb.child("map"))
        gamma = None
        q = None
        interval = None
        translation = None
        if kind == "spectral":
            spec_before = phi.domain.spec
            gamma = spec_before.character(tuple(int(t) for t in sb.kv("gamma")))
            q = int(sb.kv("q")[0])
            iv = sb.kv("interval")
            interval = (int(iv[0]), int(iv[1]))
            translation = spec_before.element(tuple(int(t) for t in sb.kv("translation")))
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
        current = phi.image()
    final_set = _r_set(model_b.child("model-set"))
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
        density_initial=parse_fraction(model_b.kv("density-initial")[0]),
        density_final=parse_fraction(model_b.kv("density-final")[0]),
        prop_density_bound=float(model_b.kv("density-bound")[0]),
        meets_density_bound=True,
    )

    bog_b = root.child("bogolyubov")
    spec1 = final_set.spec
    gamma_raw = []
    for line in bog_b.child("gamma-raw").lines:
        coords = tuple(int(t) for t in line[1:-1])
        gamma_raw.append((spec1.character(coords), float(line[-1])))
    phi_chars = tuple(
        spec1.character(tuple(int(t) for t in line[1:]))
        for line in bog_b.child("phi").lines
    )

    minima = None
    min_b = root.maybe_child("minima")
    if min_b is not None:
        den = int(min_b.kv("denominator")[0])
        stripped = tuple(
            spec1.character(tuple(int(t) for t in line[1:]))
            for line in min_b.child("stripped").lines
        )
        sub_gens = [
            spec1.element(tuple(int(t) for t in line[1:]))
            for line in min_b.child("subgroup").lines
        ]
        from .groups import subgroup_closure

        subgroup = subgroup_closure(spec1, sub_gens)
        lambdas = []
        vectors = []
        preimages = []
        for line in min_b.lines:
            if line[0] != "minimum":
                continue
            lam = parse_fraction(line[1])
            vi = line.index("vector")
            pi = line.index("preimage")
            vec = tuple(parse_fraction(t) for t in line[vi + 1 : pi])
            pre = spec1.element(tuple(int(t) for t in line[pi + 1 :]))
            lambdas.append(lam)
            vectors.append(vec)
            preimages.append(pre)
        minima = MinimaReport(
            spec=spec1,
            chars=phi_chars,
            stripped=stripped,
            denominator=den,
            lambdas=tuple(lambdas),
            vectors=tuple(vectors),
            preimages=tuple(preimages),
            subgroup=subgroup,
            det=parse_fraction(min_b.kv("det")[0]),
        )

    cp_model = _r_progression(root.child("progression-model"))
    tr_b = root.child("transport")
    transport = None
    if tr_b.kv("identity")[0] == "0":
        transport = _r_map(tr_b.child("map"))
    cp = _r_progression(root.child("progression"))

    cover_b = root.child("cover")
    mk = int(cover_b.kv("mk")[0])
    t = int(cover_b.kv("t")[0])
    eta = parse_fraction(cover_b.kv("eta")[0])
    r_sets = []
    s_sets = []
    i = 0
    while cover_b.maybe_child(f"r{i}") is not None:
        r_sets.append(_r_set(cover_b.child(f"r{i}")))
        i += 1
    i = 0
    while cover_b.maybe_child(f"s{i}") is not None:
        s_sets.append(_r_set(cover_b.child(f"s{i}")))
        i += 1
    p_sizes = {}
    for line in cover_b.lines:
        if line[0] == "p-size":
            p_sizes[int(line[1])] = int(line[2])
    q_prog = _r_progression(cover_b.child("q"))
    q_size = int(cover_b.kv("q-size")[0])

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
    checks = tuple(
        BoundCheck(line[1], line[2], line[3], line[4])
        for line in root.child("checks").lines
        if line[0] == "check"
    )
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
    bohr_rho = parse_fraction(bog_b.kv("bohr-rho")[0])
    stored_p_sizes = tuple(p_sizes.get(i, -1) for i in range(t + 1))
    cert = PipelineCertificate(
        config=config,
        input_set=input_set,
        doubling_report=dbl,
        model=trace,
        alpha=parse_fraction(bog_b.kv("alpha")[0]),
        threshold_rho=float(bog_b.kv("threshold-rho")[0]),
        gamma_raw=tuple(gamma_raw),
        phi=phi_chars,
        bohr_rho=bohr_rho,
        l4_sum=float(bog_b.kv("l4-sum")[0]),
        l4_lower=float(bog_b.kv("l4-lower")[0]),
        dim_bound=float(bog_b.kv("dim-bound")[0]),
        radius_lower=float(bog_b.kv("radius-lower")[0]),
        minima=minima,
        progression_model=cp_model,
        transport=transport,
        progression=cp,
        cover=cover,
        checks=checks,
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
    five_k = 5 * k
    low = (1 << cp0.dimension) * ratio ** math.floor(five_k) * a.size
    high = (1 << cp0.dimension) * ratio ** math.ceil(five_k) * a.size
    add("cover_size_bound", q_realized.size <= high, "inconclusive band allowed")

    add("stored_checks", not any(c.failed for c in cert.checks))
    return VerificationReport(tuple(entries))
