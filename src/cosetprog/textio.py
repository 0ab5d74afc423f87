"""Line-oriented text formats shared by the CLI and the certificates.

All formats are whitespace-separated decimal tokens, one item per line,
with ``#`` comments.  Rationals are written ``p/q`` (or a bare integer),
floats with 12 significant digits.  Writers are deterministic: identical
objects produce byte-identical text.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from .bohr import CosetProgression

# The scalar tokens are defined in the leaf module ``checks`` (``bohr`` imports
# it, and this module imports ``bohr``) and re-exported here with the formats.
from .checks import fmt_float, fmt_fraction, parse_float, parse_fraction, parse_int
from .errors import DomainError
from .groups import Character, GroupElement, GroupSpec, Subgroup, subgroup_closure
from .sumsets import GroupSet


def strip_lines(text: str) -> list[list[str]]:
    """Tokenized non-empty lines with comments removed."""
    if "#" in text:
        lines = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    else:
        lines = map(str.split, text.splitlines())
    return [row for row in lines if row]


def join_ints(values) -> str:
    return " ".join(str(int(v)) for v in values)


def parse_ints(tokens: Sequence[str]) -> tuple[int, ...]:
    """Every token as an integer, exactly as ``parse_int`` reads one."""
    try:
        return tuple(map(int, tokens))
    except ValueError:  # a DomainError naming the first bad token, or an overlong integer
        return tuple(map(parse_int, tokens))


def _value(row: list[str]) -> str:
    """The single token after a line's keyword."""
    if len(row) != 2:
        raise DomainError(f"line needs exactly one value: {' '.join(row)}")
    return row[1]


def parse_flag(row: list[str]) -> bool:
    """The value of a ``key 0`` or ``key 1`` line; any other token is a DomainError."""
    value = _value(row)
    if value not in ("0", "1"):
        raise DomainError(f"a flag must read 0 or 1: {' '.join(row)}")
    return value == "1"


# --- blocks ----------------------------------------------------------------
#
# A block is a run of rows of one kind (the ``elem`` lines of a set, the
# ``char`` lines of a certificate section).  Its keywords and arities are
# checked in one pass, then all of its integer tokens are converted in one go.


class Shapes:
    """The groups and subgroups named by one text, each built once.

    A certificate names the same group in many sections and the same
    subgroup H in several progressions; reading them through one Shapes
    gives one GroupSpec per orders tuple, so its cached weights are computed
    once, and one Subgroup per (group, generators) pair, so each closure is
    built once.  A Shapes lives as long as one read.
    """

    def __init__(self) -> None:
        self._specs: dict[tuple[int, ...], GroupSpec] = {}
        self._subgroups: dict[tuple, Subgroup] = {}

    def spec(self, tokens: Sequence[str]) -> GroupSpec:
        orders = parse_ints(tokens)
        spec = self._specs.get(orders)
        if spec is None:
            spec = GroupSpec(orders)
            if spec.cardinality >= 1 << 63:  # no element index fits an int64
                spec.require_enumerable()
            self._specs[orders] = spec
        return spec

    def subgroup(self, spec: GroupSpec, generators: Sequence[GroupElement]) -> Subgroup:
        key = (spec.orders, tuple(g.coords for g in generators))
        sub = self._subgroups.get(key)
        if sub is None:
            sub = self._subgroups[key] = subgroup_closure(spec, generators)
        return sub


def _int_rows(spec: GroupSpec, tokens: Sequence[str]) -> np.ndarray:
    """Integer tokens, rank(G) of them per row, as one (m, rank) array, not
    yet reduced into G."""
    values = parse_ints(tokens)
    try:
        coords = np.array(values, dtype=np.int64)
    except OverflowError:  # a coordinate beyond int64 still reads modulo its order
        k = spec.rank
        coords = np.array([v % spec.orders[i % k] for i, v in enumerate(values)], dtype=np.int64)
    return coords.reshape(-1, spec.rank)


def _keyword_rows(spec: GroupSpec, rows: Sequence[list[str]], keyword: str) -> np.ndarray:
    """The coordinates of rows reading ``keyword`` and rank(G) integers, as
    one (m, rank) array.  Keywords and lengths are checked in one pass over
    the block; the first row that fails is quoted in the DomainError."""
    k = spec.rank
    if set(map(itemgetter(0), rows)) - {keyword} or set(map(len, rows)) - {1 + k}:
        for row in rows:
            if row[0] != keyword or len(row) != 1 + k:
                raise DomainError(f"expected {keyword!r} and {k} coordinate(s): {' '.join(row)}")
    return _int_rows(spec, list(chain.from_iterable(row[1:] for row in rows)))


def element_rows(spec: GroupSpec, rows: Sequence[list[str]]) -> tuple[GroupElement, ...]:
    """The elements of a block of ``elem`` rows."""
    return spec.elements_of_rows(_keyword_rows(spec, rows, "elem")) if rows else ()


def character_rows(spec: GroupSpec, rows: Sequence[list[str]]) -> tuple[Character, ...]:
    """The characters of a block of ``char`` rows."""
    return spec.characters_of_rows(_keyword_rows(spec, rows, "char")) if rows else ()


# --- sets -----------------------------------------------------------------
#
# Each format has a line-level writer (``*_lines``) and a row-level parser
# (``parse_*``) over ``strip_lines`` rows; certificates embed the same lines
# in their ``begin``/``end`` sections.  A parser given a Shapes shares its
# groups and subgroups with the rest of the text.


def group_set_lines(a: GroupSet) -> list[str]:
    return ["group " + join_ints(a.spec.orders)] + [
        "elem " + " ".join(map(str, row)) for row in a.coords().tolist()
    ]


def parse_group_set(rows: list[list[str]], shapes: Shapes | None = None) -> GroupSet:
    if not rows or rows[0][0] != "group":
        raise DomainError("a set must start with a 'group' line")
    spec = (shapes or Shapes()).spec(rows[0][1:])
    body = rows[1:]
    width = 1 + spec.rank
    if set(map(itemgetter(0), body)) - {"elem"} or set(map(len, body)) - {width}:
        for row in body:
            if row[0] != "elem":
                raise DomainError(f"unexpected line in set: {' '.join(row)}")
            if len(row) != width:
                raise DomainError(f"element arity does not match the group: {' '.join(row)}")
    tokens = list(chain.from_iterable(body))
    del tokens[::width]  # the keywords
    return GroupSet.from_coords(spec, _int_rows(spec, tokens))


def write_group_set(a: GroupSet) -> str:
    return "\n".join(group_set_lines(a)) + "\n"


def read_group_set(text: str) -> GroupSet:
    return parse_group_set(strip_lines(text))


def read_int_set(text: str) -> list[int]:
    rows = strip_lines(text)
    values = []
    for row in rows:
        if row[0] == "intset":
            continue
        values.extend(parse_ints(row))
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


def parse_progression(rows: list[list[str]], shapes: Shapes | None = None) -> CosetProgression:
    if not rows or rows[0][0] != "group":
        raise DomainError("a progression must start with a 'group' line")
    shapes = shapes or Shapes()
    spec = shapes.spec(rows[0][1:])
    k = spec.rank
    base = spec.zero()
    gens: list[str] = []  # the coordinates of every gen line
    subs: list[list[str]] = []  # the elem lines after ``subgroup``
    bounds: list[str] = []
    proper = False
    mode = "body"
    for row in rows[1:]:
        if row[0] == "base":
            base = spec.element(parse_ints(row[1:]))
        elif row[0] == "gen":
            if len(row) != 1 + k + 2:
                raise DomainError(f"gen line must hold coordinates plus lo hi: {' '.join(row)}")
            gens += row[1 : 1 + k]
            bounds += row[1 + k :]
        elif row[0] == "subgroup":
            mode = "subgroup"
        elif row[0] == "elem" and mode == "subgroup":
            subs.append(row)
        elif row[0] == "proper":
            proper = parse_flag(row)
        else:
            raise DomainError(f"unexpected line in progression: {' '.join(row)}")
    lo_hi = parse_ints(bounds)
    return CosetProgression(
        spec=spec,
        base=base,
        generators=spec.elements_of_rows(_int_rows(spec, gens)),
        bounds=tuple(zip(lo_hi[::2], lo_hi[1::2])),
        subgroup=shapes.subgroup(spec, element_rows(spec, subs)),
        proper=proper,
    )


def write_progression(cp: CosetProgression) -> str:
    return "\n".join(progression_lines(cp)) + "\n"


def read_progression(text: str) -> CosetProgression:
    return parse_progression(strip_lines(text))


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
