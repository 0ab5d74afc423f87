"""Line-oriented text formats shared by the CLI and the certificates.

All formats are whitespace-separated decimal tokens, one item per line,
with ``#`` comments.  Rationals are written ``p/q`` (or a bare integer),
floats with 12 significant digits.  Writers are deterministic: identical
objects produce byte-identical text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from .bohr import CosetProgression
from .errors import DomainError
from .freiman import FreimanMap
from .groups import GroupElement, GroupSpec, subgroup_closure
from .sumsets import GroupSet


def fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_int(token: str) -> int:
    """A decimal integer token; anything else is a DomainError."""
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"malformed integer token {token!r}") from None


def parse_fraction(token: str) -> Fraction:
    num, _, den = token.partition("/")
    try:
        return Fraction(parse_int(num), parse_int(den or "1"))
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {token!r}") from None


def fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def strip_lines(text: str) -> list[list[str]]:
    """Tokenized non-empty lines with comments removed."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


# --- sets -----------------------------------------------------------------


def write_group_set(a: GroupSet) -> str:
    lines = ["group " + " ".join(str(n) for n in a.spec.orders)]
    for row in a.coords():
        lines.append("elem " + " ".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


def read_group_set(text: str) -> GroupSet:
    rows = strip_lines(text)
    if not rows or rows[0][0] != "group":
        raise DomainError("set file must start with a 'group' line")
    spec = GroupSpec(tuple(parse_int(t) for t in rows[0][1:]))
    coords = []
    for row in rows[1:]:
        if row[0] != "elem":
            raise DomainError(f"unexpected line in set file: {' '.join(row)}")
        if len(row) - 1 != spec.rank:
            raise DomainError("element arity does not match the group")
        coords.append(tuple(parse_int(t) for t in row[1:]))
    return GroupSet.from_coords(spec, coords)


def write_int_set(values: Iterable[int]) -> str:
    return "\n".join(str(int(v)) for v in sorted(set(values))) + "\n"


def read_int_set(text: str) -> list[int]:
    rows = strip_lines(text)
    values = []
    for row in rows:
        if row[0] == "intset":
            continue
        values.extend(parse_int(t) for t in row)
    if not values:
        raise DomainError("integer set file holds no values")
    return sorted(set(values))


# --- progressions ----------------------------------------------------------


def write_progression(cp: CosetProgression) -> str:
    lines = ["group " + " ".join(str(n) for n in cp.spec.orders)]
    lines.append("base " + " ".join(str(c) for c in cp.base.coords))
    for g, (lo, hi) in zip(cp.generators, cp.bounds):
        lines.append(
            "gen " + " ".join(str(c) for c in g.coords) + f" {lo} {hi}"
        )
    lines.append("subgroup")
    for g in cp.subgroup.generators:
        lines.append("elem " + " ".join(str(c) for c in g.coords))
    lines.append(f"proper {1 if cp.proper else 0}")
    return "\n".join(lines) + "\n"


def read_progression(text: str) -> CosetProgression:
    rows = strip_lines(text)
    if not rows or rows[0][0] != "group":
        raise DomainError("progression file must start with a 'group' line")
    spec = GroupSpec(tuple(parse_int(t) for t in rows[0][1:]))
    k = spec.rank
    base = spec.zero()
    gens: list[GroupElement] = []
    bounds: list[tuple[int, int]] = []
    sub_gens: list[GroupElement] = []
    proper = False
    mode = "body"
    for row in rows[1:]:
        if row[0] == "base":
            base = spec.element([parse_int(t) for t in row[1:]])
        elif row[0] == "gen":
            if len(row) != 1 + k + 2:
                raise DomainError("gen line must hold coordinates plus lo hi")
            gens.append(spec.element([parse_int(t) for t in row[1 : 1 + k]]))
            bounds.append((parse_int(row[1 + k]), parse_int(row[2 + k])))
        elif row[0] == "subgroup":
            mode = "subgroup"
        elif row[0] == "elem" and mode == "subgroup":
            sub_gens.append(spec.element([parse_int(t) for t in row[1:]]))
        elif row[0] == "proper":
            proper = row[1] == "1"
        else:
            raise DomainError(f"unexpected line in progression file: {' '.join(row)}")
    subgroup = subgroup_closure(spec, sub_gens)
    return CosetProgression(
        spec=spec,
        base=base,
        generators=tuple(gens),
        bounds=tuple(bounds),
        subgroup=subgroup,
        proper=proper,
    )


# --- maps ------------------------------------------------------------------


def write_freiman_map(phi: FreimanMap) -> str:
    lines = ["map"]
    lines.append("source " + " ".join(str(n) for n in phi.domain.spec.orders))
    lines.append("target " + " ".join(str(n) for n in phi.target.orders))
    lines.append(f"order {phi.order}")
    src = phi.domain.spec
    for i, j in phi.pairs():
        xc = " ".join(str(c) for c in src.coords_of(i))
        yc = " ".join(str(c) for c in phi.target.coords_of(j))
        lines.append(f"pair {xc} -> {yc}")
    return "\n".join(lines) + "\n"


def read_freiman_map(text: str) -> FreimanMap:
    rows = strip_lines(text)
    if not rows or rows[0][0] != "map":
        raise DomainError("map file must start with a 'map' line")
    source: GroupSpec | None = None
    target: GroupSpec | None = None
    order = 2
    pairs: list[tuple[int, int]] = []
    for row in rows[1:]:
        if row[0] == "source":
            source = GroupSpec(tuple(parse_int(t) for t in row[1:]))
        elif row[0] == "target":
            target = GroupSpec(tuple(parse_int(t) for t in row[1:]))
        elif row[0] == "order":
            order = parse_int(row[1])
        elif row[0] == "pair":
            if source is None or target is None:
                raise DomainError("pair lines must follow source and target")
            arrow = row.index("->")
            x = source.index_of(tuple(parse_int(t) for t in row[1:arrow]))
            y = target.index_of(tuple(parse_int(t) for t in row[arrow + 1 :]))
            pairs.append((x, y))
        else:
            raise DomainError(f"unexpected line in map file: {' '.join(row)}")
    if source is None or target is None:
        raise DomainError("map file must declare source and target groups")
    domain = GroupSet(source, np.array([x for x, _ in pairs], dtype=np.int64))
    return FreimanMap(domain, target, dict(pairs), order)


# --- spectra ---------------------------------------------------------------


def write_spectrum(spectrum) -> str:
    spec = spectrum.spec
    lines = ["group " + " ".join(str(n) for n in spec.orders)]
    for idx in range(spec.cardinality):
        coords = " ".join(str(c) for c in spec.coords_of(idx))
        v = complex(spectrum.values[idx])
        lines.append(
            f"char {coords} {fmt_float(v.real)} {fmt_float(v.imag)} {fmt_float(abs(v))}"
        )
    return "\n".join(lines) + "\n"
