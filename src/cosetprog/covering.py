"""Covering a set by translates of a progression found inside 2A - 2A.

The iteration keeps adjoining batches of ceil(2K) disjoint translates to
the progression until greedy translate selection stalls, then assembles
the final progression from difference cubes of the selected batches.
Growth is geometric while the iterate stays inside (t+2)A - 2A, which
forces termination; every step of that argument is checked exactly, and
every cover condition is written here once.  P + x meets P + R exactly
when x lies in R + (P - P) (Ruzsa's covering lemma, Tao-Vu Lemma 2.14):
that set decides greedy's choices and a stored R's maximality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bohr import CosetProgression, materialize
from .checks import BoundCheck
from .errors import DomainError, InvariantError
from .sumsets import DoublingReport, GroupSet, difference_set, doubling, iterated_sumset, sumset


def greedy_disjoint_translates(a: GroupSet, p: GroupSet) -> GroupSet:
    """Maximal subset R of A with {P + x : x in R} pairwise disjoint.

    A is scanned in canonical order.  An element x is kept unless it is
    marked, and a kept x marks x + (P - P), the points whose translate
    meets P + x.  Every rejected element collides with an earlier
    translate, so the result is maximal by construction.
    """
    if not p:
        raise DomainError("translates of the empty set are not useful")
    diffs = difference_set(p).indices
    blocked = np.zeros(a.spec.cardinality, dtype=bool)
    keep: list[int] = []
    for x in a.indices.tolist():
        if not blocked[x]:
            keep.append(x)
            blocked[a.spec.add_scalar(diffs, x)] = True
    return GroupSet.from_sorted(a.spec, np.array(keep, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class CoverInput:
    """A set together with a progression P + H and its realized set.

    A certificate does not hold the realized set: one read from text has
    ``realized`` None.
    """

    set: GroupSet
    progression: CosetProgression
    realized: GroupSet | None
    eta: Fraction
    dimension: int
    doubling: DoublingReport

    @classmethod
    def build(cls, a: GroupSet, cp: CosetProgression) -> "CoverInput":
        """The input for ``chang_cover``: its first ``judge_cover`` fault raises."""
        if not a:
            raise DomainError("cannot cover the empty set")
        cover_input = cls.derive(a, cp, doubling(a))
        for name, fault in judge_cover(cover_input, count_only=True)[1]:
            if fault:
                raise DomainError(f"{name}: {fault}")
        return cover_input

    @classmethod
    def derive(cls, a: GroupSet, cp: CosetProgression, dbl: DoublingReport) -> "CoverInput":
        realized = materialize(cp)
        return cls(
            set=a,
            progression=cp,
            realized=realized,
            eta=Fraction(realized.size, a.size),
            dimension=cp.dimension,
            doubling=dbl,
        )

    @property
    def mk(self) -> int:
        """ceil(2K), the number of translates adjoined per round."""
        return math.ceil(2 * self.doubling.k)


@dataclass(frozen=True, eq=False)
class CoverTrace:
    """One covering run: its translates, |P_0|, ..., |P_t|, Q, |Q + H| and checks."""

    input: CoverInput
    mk: int
    t: int
    r_sets: tuple[GroupSet, ...]
    s_sets: tuple[GroupSet, ...]
    p_sizes: tuple[int, ...]
    q: CosetProgression
    q_size: int
    checks: tuple[BoundCheck, ...]

    @property
    def all_passed(self) -> bool:
        return not any(c.failed for c in self.checks)


def _cover_size_check(
    name: str, lhs: int, d: int, ratio: Fraction, five_k: Fraction, size_a: int
) -> BoundCheck:
    """Compare lhs against 2^d * ratio^(5K) * |A| with outward rounding.

    The exponent need not be an integer, so the comparison brackets the
    true bound between the floor and ceiling integer powers (ratio >= 1);
    only a lhs between the brackets is inconclusive.  A base below 1 means
    the progression was not inside 2A - 2A, and the check fails on it.
    """
    if ratio < 1:
        return BoundCheck.make(name, False, ratio, 1)
    low = (1 << d) * ratio ** math.floor(five_k) * size_a
    high = (1 << d) * ratio ** math.ceil(five_k) * size_a
    if lhs <= low:
        return BoundCheck.make(name, True, lhs, low)
    if lhs > high:
        return BoundCheck.make(name, False, lhs, high)
    return BoundCheck.inconclusive(name, lhs, high)


def cover_trace(
    cover_input: CoverInput,
    r_sets: Sequence[GroupSet],
    s_sets: Sequence[GroupSet],
    p_sets: Sequence[GroupSet],
) -> CoverTrace:
    """Assemble Q from the rounds and check the rounds and Q: exact growth of
    P_0, ..., P_t, the iterate inside (t+2)A - 2A and its size, 2^t <= K^4/eta,
    A inside Q + H, and the dimension and size bounds.  None of them raises.

    Q has base r_0, the first element of R_t; the difference ranges of P; a
    {-1, 0, 1} range for every element of S_0, ..., S_{t-1}; and a {0, 1}
    range for r - r_0, for every other r in R_t.  Its ``proper`` flag is
    set by counting.  Maximality of R_t puts A inside R_t + P_t - P_t, and
    P_t - P_t = (P - P) + H + (S_0 - S_0) + ... + (S_{t-1} - S_{t-1}), so
    A lies in Q + H.
    """
    a = cover_input.set
    k = cover_input.doubling.k
    eta = cover_input.eta
    mk = cover_input.mk
    t = len(s_sets)
    p_t = p_sets[t]
    cp = cover_input.progression
    gens = list(cp.generators)
    bounds = [(lo - hi, hi - lo) for lo, hi in cp.bounds]
    for chosen in s_sets:
        for e in chosen.elements():
            gens.append(e)
            bounds.append((-1, 1))
    # R_t is nonempty when A is; a tampered certificate's empty R_t keeps
    # base 0, so that verify reports the failing checks instead of raising
    r_0, *rest = r_sets[t].elements() or [cp.spec.zero()]
    for r in rest:
        gens.append(r - r_0)
        bounds.append((0, 1))
    q = CosetProgression(cp.spec, r_0, tuple(gens), tuple(bounds), cp.subgroup, proper=False)
    q_realized = materialize(q)
    q = replace(q, proper=q_realized.size == q.formal_size)
    predicted = p_sets[0].size * math.prod(s.size for s in s_sets)
    envelope = iterated_sumset(a, t + 2, 2)
    dim_bound = cover_input.dimension + 2 * mk * (t + 1)
    iterate_bound = k ** (t + 4) * a.size
    checks = (
        BoundCheck.make("cover_growth_products", p_t.size == predicted, p_t.size, predicted),
        BoundCheck.make("cover_iterate_envelope", p_t.is_subset(envelope),
                        p_t.size, envelope.size),
        BoundCheck.make("cover_iterate_size", p_t.size <= iterate_bound, p_t.size, iterate_bound),
        BoundCheck.make("cover_termination", eta * 2**t <= k**4, eta * 2**t, k**4),
        BoundCheck.make("cover_containment", a.is_subset(q_realized), a.size, q_realized.size),
        BoundCheck.make("cover_dimension", q.dimension <= dim_bound, q.dimension, dim_bound),
        _cover_size_check("cover_size", q_realized.size, cover_input.dimension, k**4 / eta,
                          5 * k, a.size),
    )
    return CoverTrace(
        input=cover_input,
        mk=mk,
        t=t,
        r_sets=tuple(r_sets),
        s_sets=tuple(s_sets),
        p_sizes=tuple(p.size for p in p_sets),
        q=q,
        q_size=q_realized.size,
        checks=checks,
    )


def chang_cover(cover_input: CoverInput) -> CoverTrace:
    """Run the covering iteration and assemble the containing progression.

    Rounds adjoin ceil(2K) greedy disjoint translates until at most that
    many remain.  Every cover check is a guarantee (the size bound may be
    inconclusive): a failure raises InvariantError.
    """
    a = cover_input.set
    k = cover_input.doubling.k
    eta = cover_input.eta
    mk = cover_input.mk
    max_rounds = 10
    while eta * Fraction(2) ** max_rounds <= k**4:
        max_rounds += 1

    p_sets = [cover_input.realized]
    r_sets: list[GroupSet] = []
    s_sets: list[GroupSet] = []
    for i in range(max_rounds + 1):
        r_i = greedy_disjoint_translates(a, p_sets[i])
        r_sets.append(r_i)
        if r_i.size <= mk:
            break
        s_i = GroupSet(a.spec, r_i.indices[:mk])
        s_sets.append(s_i)
        p_sets.append(sumset(p_sets[i], s_i))
    else:
        raise InvariantError("covering iteration exceeded its termination bound")

    trace = cover_trace(cover_input, r_sets, s_sets, p_sets)
    for check in trace.checks:
        if check.failed:
            raise InvariantError(f"guaranteed covering property failed: {check.line()}")
    return trace


def judge_cover(
    cover_input: CoverInput, r_sets: Sequence[GroupSet] = (), s_sets: Sequence[GroupSet] = (),
    count_only: bool = False,
) -> tuple[list[GroupSet], list[tuple[str, str]]]:
    """P_0, ..., P_t from stored rounds, and every cover condition as a
    (name, fault) pair, the fault empty when it holds; ``count_only`` takes
    properness by count alone, without the ``proper`` flag."""
    a, mk = cover_input.set, cover_input.mk
    cp, p_0 = cover_input.progression, cover_input.realized
    d22 = iterated_sumset(a, 2, 2)
    proper = (count_only or cp.proper) and p_0.size == cp.formal_size
    faults = [
        ("cover_input_proper", "" if proper else (
            f"|P + H| = {p_0.size}, formal size {cp.formal_size}, marked proper {int(cp.proper)}"
        )),
        ("cover_input_contained", "" if p_0.is_subset(d22) else (
            f"{_outside(p_0, d22)} of the {p_0.size} point(s) of P + H lie outside"
            f" 2A - 2A ({d22.size} point(s))"
        )),
    ]
    p_sets = [p_0]
    for i, r_i in enumerate(r_sets):
        p_i = p_sets[i]
        union = sumset(p_i, r_i).size
        fault = "" if union == p_i.size * r_i.size else (
            f"|P_{i} + R_{i}| = {union}, not {p_i.size} * {r_i.size}"
        )
        if not r_i.is_subset(a):
            fault = f"{_outside(r_i, a)} of the {r_i.size} point(s) of R_{i} lie outside A"
        faults.append((f"cover_round_{i}_disjoint", fault))
        # x in R_i or P_i + x meeting P_i + R_i: R_i + (P_i - P_i), or R_i if P_i is empty
        reach = sumset(r_i, difference_set(p_i)) if p_i else r_i
        missed = np.setdiff1d(a.indices, reach.indices, assume_unique=True)
        x = a.spec.element_at(int(missed[0])) if missed.size else None
        faults.append((f"cover_round_{i}_maximal", "" if x is None else (
            f"{x!r} is in A but not in R_{i}, and P_{i} + {x!r} misses P_{i} + R_{i}"
        )))
        if i == len(s_sets):
            fault = "" if r_i.size <= mk else f"|R_{i}| = {r_i.size} exceeds ceil(2K) = {mk}"
            faults.append(("cover_rt_small", fault))
            break
        s_i = s_sets[i]
        fault = "" if s_i.size == mk and s_i.is_subset(r_i) and r_i.size > mk else (
            f"|S_{i}| = {s_i.size} with {_outside(s_i, r_i)} point(s) outside R_{i},"
            f" |R_{i}| = {r_i.size}, ceil(2K) = {mk}"
        )
        faults.append((f"cover_round_{i}_batch", fault))
        p_sets.append(sumset(p_i, s_i))
        fault = "" if p_sets[-1].size == p_i.size * s_i.size else (
            f"|P_{i + 1}| = {p_sets[-1].size}, not {p_i.size} * {s_i.size}"
        )
        faults.append((f"cover_round_{i}_growth", fault))
    return p_sets, faults


def _outside(x: GroupSet, y: GroupSet) -> int:
    """The number of points of ``x`` not in ``y``."""
    return int(np.setdiff1d(x.indices, y.indices, assume_unique=True).size)
