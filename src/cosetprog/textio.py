"""Line-oriented text formats shared by the CLI and the certificates.

All formats are whitespace-separated decimal tokens, one item per line,
with ``#`` comments.  Rationals are written ``p/q`` (or a bare integer),
floats with 12 significant digits.  Writers are deterministic: identical
objects produce byte-identical text.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .bohr import CosetProgression

# The scalar tokens are defined in the leaf module ``checks`` (``bohr`` imports
# it, and this module imports ``bohr``) and re-exported here with the formats.
from .checks import fmt_float, fmt_fraction, parse_float, parse_fraction, parse_int
from .errors import DomainError
from .freiman import FreimanMap
from .groups import GroupElement, GroupSpec, subgroup_closure
from .sumsets import GroupSet


def strip_lines(text: str) -> list[list[str]]:
    """Tokenized non-empty lines with comments removed."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def join_ints(values) -> str:
    return " ".join(str(int(v)) for v in values)


def parse_ints(tokens: list[str]) -> tuple[int, ...]:
    return tuple(parse_int(t) for t in tokens)


def _value(row: list[str]) -> str:
    """The single token after a line's keyword."""
    if len(row) != 2:
        raise DomainError(f"line needs exactly one value: {' '.join(row)}")
    return row[1]


# --- sets -----------------------------------------------------------------
#
# Each format has a line-level writer (``*_lines``) and a row-level parser
# (``parse_*``) over ``strip_lines`` rows; certificates embed the same lines
# in their ``begin``/``end`` sections.


def group_set_lines(a: GroupSet) -> list[str]:
    return ["group " + join_ints(a.spec.orders)] + [
        "elem " + join_ints(row) for row in a.coords()
    ]


def parse_group_set(rows: list[list[str]]) -> GroupSet:
    if not rows or rows[0][0] != "group":
        raise DomainError("a set must start with a 'group' line")
    spec = GroupSpec(parse_ints(rows[0][1:]))
    coords = []
    for row in rows[1:]:
        if row[0] != "elem":
            raise DomainError(f"unexpected line in set: {' '.join(row)}")
        if len(row) - 1 != spec.rank:
            raise DomainError("element arity does not match the group")
        coords.append(parse_ints(row[1:]))
    return GroupSet.from_coords(spec, coords)


def write_group_set(a: GroupSet) -> str:
    return "\n".join(group_set_lines(a)) + "\n"


def read_group_set(text: str) -> GroupSet:
    return parse_group_set(strip_lines(text))


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


def progression_lines(cp: CosetProgression) -> list[str]:
    lines = ["group " + join_ints(cp.spec.orders), "base " + join_ints(cp.base.coords)]
    for g, (lo, hi) in zip(cp.generators, cp.bounds):
        lines.append(f"gen {join_ints(g.coords)} {lo} {hi}")
    lines.append("subgroup")
    lines.extend("elem " + join_ints(g.coords) for g in cp.subgroup.generators)
    lines.append(f"proper {1 if cp.proper else 0}")
    return lines


def parse_progression(rows: list[list[str]]) -> CosetProgression:
    if not rows or rows[0][0] != "group":
        raise DomainError("a progression must start with a 'group' line")
    spec = GroupSpec(parse_ints(rows[0][1:]))
    k = spec.rank
    base = spec.zero()
    gens: list[GroupElement] = []
    bounds: list[tuple[int, int]] = []
    sub_gens: list[GroupElement] = []
    proper = False
    mode = "body"
    for row in rows[1:]:
        if row[0] == "base":
            base = spec.element(parse_ints(row[1:]))
        elif row[0] == "gen":
            if len(row) != 1 + k + 2:
                raise DomainError("gen line must hold coordinates plus lo hi")
            gens.append(spec.element(parse_ints(row[1 : 1 + k])))
            bounds.append((parse_int(row[1 + k]), parse_int(row[2 + k])))
        elif row[0] == "subgroup":
            mode = "subgroup"
        elif row[0] == "elem" and mode == "subgroup":
            sub_gens.append(spec.element(parse_ints(row[1:])))
        elif row[0] == "proper":
            proper = _value(row) == "1"
        else:
            raise DomainError(f"unexpected line in progression: {' '.join(row)}")
    subgroup = subgroup_closure(spec, sub_gens)
    return CosetProgression(
        spec=spec,
        base=base,
        generators=tuple(gens),
        bounds=tuple(bounds),
        subgroup=subgroup,
        proper=proper,
    )


def write_progression(cp: CosetProgression) -> str:
    return "\n".join(progression_lines(cp)) + "\n"


def read_progression(text: str) -> CosetProgression:
    return parse_progression(strip_lines(text))


# --- maps ------------------------------------------------------------------
#
# The map body (``source``, ``target``, ``order``, ``pair`` lines) follows a
# leading ``map`` line in a map file and a ``begin map`` line in a certificate.


def freiman_map_lines(phi: FreimanMap) -> list[str]:
    src, tgt = phi.domain.spec, phi.target
    lines = [
        "source " + join_ints(src.orders),
        "target " + join_ints(tgt.orders),
        f"order {phi.order}",
    ]
    for i, j in phi.pairs():
        lines.append(f"pair {join_ints(src.coords_of(i))} -> {join_ints(tgt.coords_of(j))}")
    return lines


def parse_freiman_map(rows: list[list[str]]) -> FreimanMap:
    source: GroupSpec | None = None
    target: GroupSpec | None = None
    order = 2
    table: dict[int, int] = {}
    for row in rows:
        if row[0] == "source":
            source = GroupSpec(parse_ints(row[1:]))
        elif row[0] == "target":
            target = GroupSpec(parse_ints(row[1:]))
        elif row[0] == "order":
            order = parse_int(_value(row))
        elif row[0] == "pair":
            if source is None or target is None:
                raise DomainError("pair lines must follow source and target")
            arrow = 1 + source.rank
            if len(row) != arrow + 1 + target.rank or row[arrow] != "->":
                raise DomainError(
                    f"pair line must read 'pair x.. -> y..' with {source.rank} and "
                    f"{target.rank} coordinates: {' '.join(row)}"
                )
            x = source.index_of(parse_ints(row[1:arrow]))
            if x in table:
                raise DomainError(f"second pair line for one domain element: {' '.join(row)}")
            table[x] = target.index_of(parse_ints(row[arrow + 1 :]))
        else:
            raise DomainError(f"unexpected line in map: {' '.join(row)}")
    if source is None or target is None:
        raise DomainError("a map must declare source and target groups")
    domain = GroupSet(source, np.array(list(table), dtype=np.int64))
    return FreimanMap(domain, target, table, order)


def write_freiman_map(phi: FreimanMap) -> str:
    return "\n".join(["map", *freiman_map_lines(phi)]) + "\n"


def read_freiman_map(text: str) -> FreimanMap:
    rows = strip_lines(text)
    if not rows or rows[0][0] != "map":
        raise DomainError("map file must start with a 'map' line")
    return parse_freiman_map(rows[1:])


# --- spectra ---------------------------------------------------------------


def write_spectrum(spectrum) -> str:
    spec = spectrum.spec
    lines = ["group " + join_ints(spec.orders)]
    for idx in range(spec.cardinality):
        coords = join_ints(spec.coords_of(idx))
        v = complex(spectrum.values[idx])
        lines.append(
            f"char {coords} {fmt_float(v.real)} {fmt_float(v.imag)} {fmt_float(abs(v))}"
        )
    return "\n".join(lines) + "\n"
