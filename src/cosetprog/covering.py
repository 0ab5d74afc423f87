"""Covering a set by translates of a progression found inside 2A - 2A.

The iteration keeps adjoining batches of ceil(2K) disjoint translates to
the progression until greedy translate selection stalls, then assembles
the final progression from difference cubes of the selected batches.
Growth is geometric while the iterate stays inside (t+2)A - 2A, which
forces termination; every step of that argument is checked exactly.
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
from .sumsets import DoublingReport, GroupSet, doubling, iterated_sumset, pair_chunks, sumset


def greedy_disjoint_translates(a: GroupSet, p: GroupSet) -> GroupSet:
    """Maximal subset R of A with {P + x : x in R} pairwise disjoint.

    A is scanned in canonical order; every rejected element collides with
    an earlier translate, so the result is maximal by construction.  The
    translates P + x are built a ``pair_chunks`` block of rows of A + P at
    a time.  The kept translates are disjoint, so once they cover G no
    later one can be kept, and no later block is built.
    """
    if not p:
        raise DomainError("translates of the empty set are not useful")
    spec = a.spec
    covered = np.zeros(spec.cardinality, dtype=bool)
    keep: list[int] = []
    for rows in pair_chunks(a.size, p.size):
        block = spec.add_pairwise(a.indices[rows], p.indices)
        for x, translate in zip(a.indices[rows].tolist(), block):
            if not covered[translate].any():
                keep.append(x)
                covered[translate] = True
        if len(keep) * p.size == spec.cardinality:
            break
    return GroupSet(spec, np.array(keep, dtype=np.int64))


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
    def build(
        cls,
        a: GroupSet,
        cp: CosetProgression,
        d22: GroupSet | None = None,
    ) -> "CoverInput":
        """The input for ``chang_cover``: cp must be proper and inside 2A - 2A.

        ``d22`` is 2A - 2A, built here unless the caller has it.
        """
        if not a:
            raise DomainError("cannot cover the empty set")
        cover_input = cls.derive(a, cp, doubling(a))
        if cover_input.realized.size != cp.formal_size:
            raise DomainError("progression is not proper")
        if d22 is None:
            d22 = iterated_sumset(a, 2, 2)
        if not cover_input.realized.is_subset(d22):
            raise DomainError("progression is not contained in 2A - 2A")
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
    t: int | None = None
    for i in range(max_rounds + 1):
        r_i = greedy_disjoint_translates(a, p_sets[i])
        r_sets.append(r_i)
        if r_i.size <= mk:
            t = i
            break
        s_i = GroupSet(a.spec, r_i.indices[:mk])
        s_sets.append(s_i)
        p_next = sumset(p_sets[i], s_i)
        if p_next.size != p_sets[i].size * s_i.size:
            raise InvariantError("translate disjointness failed: |P_{i+1}| != |P_i||S_i|")
        p_sets.append(p_next)
    if t is None:
        raise InvariantError("covering iteration exceeded its termination bound")

    trace = cover_trace(cover_input, r_sets, s_sets, p_sets)
    for check in trace.checks:
        if check.failed:
            raise InvariantError(f"guaranteed covering property failed: {check.line()}")
    return trace
