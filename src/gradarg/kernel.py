"""Graded acceptability kernel: counting operators and their iteration.

The neutrality operator at tolerance l keeps the arguments with fewer
than l attackers inside a set. The defense operator at grade (m, n)
keeps the arguments with fewer than m live attackers, where an attacker
counts as live when the set musters fewer than n counter-attackers
against it. Both collapse to the classical Dung operators at threshold
one.

Every function here reads the framework's attack rows directly, as its
constructor built them: the counts AND a set with ``attacker_masks[i]``,
and the fixpoint walk follows ``target_indices[i]`` from each argument
that joins.

In-set attackers of a given set are counted in two places only.
``neutrality_mask`` counts them for every argument: defense is computed
as neutrality composed with itself, d_mn(X) = n_m(n_n(X)), since the
n-neutral set of X holds exactly the attackers X fails to counter n
times, and the unattacked arguments are the 1-neutral set of the whole
framework. ``least_tolerance`` counts them for the members of a set: a
set is l-conflict-free exactly when its least tolerance is at most l,
which is also the only test the subset search prunes with. It is the
one place a least tolerance is computed.

Least defense fixpoints come from counter propagation, one column of
grades at a time: ``least_fixpoints`` walks m up through a range at a
fixed n, keeping per-argument counts of in-set attackers and of live
attackers. For fixed n each least fixpoint lies inside the next one up
in m, so a whole column costs one pass over the attacks plus one scan of
the arguments per m. These counters are a third count of in-set
attackers, kept apart on purpose: they are updated one attack at a time
while a single set grows, whereas ``neutrality_mask`` and
``least_tolerance`` count an arbitrary set afresh from bitmasks. They
only propagate defense: the walk returns plain masks, and a caller that
needs the least tolerance of a fixpoint asks ``least_tolerance``.

Greatest fixpoints need no walk of their own: the greatest (m, n)
defense fixpoint is n_m(L), the m-neutral set of the least fixpoint L
at the swapped grade (n, m). Since d_mn = n_m(n_n(.)) and d_nm =
n_n(n_m(.)), d_mn(n_m(L)) = n_m(d_nm(L)) = n_m(L), a fixpoint. Any
fixpoint Y of d_mn has n_n(Y) a fixpoint of d_nm, which contains L; n_m
is antitone, so Y = n_m(n_n(Y)) lies inside n_m(L).

``defense_orbit`` iterates the operator stage by stage. It is kept for
what the counters cannot give: the orbit of a context that does not
defend itself, which may cycle; the stage-by-stage records of
``lfp_from`` and ``gfp_from``, so callers can inspect convergence; and
the reference the tests hold the fixpoint walks to.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import NotExpandableError
from .framework import ArgumentationFramework, ArgumentSet, _mask


@dataclass(frozen=True)
class GradeParams:
    """The (l, m, n) triple: conflict tolerance, defense-failure
    tolerance, and required counter-attackers."""

    l: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.l < 1 or self.m < 1 or self.n < 1:
            raise ValueError("grade parameters must be positive")

    @property
    def existence_safe(self) -> bool:
        """Whether the parameters lie in the region where grounded
        extensions are guaranteed to exist (n >= m and l >= m)."""
        return self.n >= self.m and self.l >= self.m


@dataclass(frozen=True)
class DefenseGrade:
    """The (m, n) pair grading the defense operator."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("grade parameters must be positive")


class GradeOrdering(Enum):
    STRONGER = "stronger"
    WEAKER = "weaker"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def compare_grades(g1: DefenseGrade, g2: DefenseGrade) -> GradeOrdering:
    """Partial strength order: (m,n) is at least as strong as (s,t)
    iff m <= s and t <= n; lower failure tolerance and higher
    counter-attack demands mean fewer arguments get defended."""
    if g1 == g2:
        return GradeOrdering.EQUAL
    if g1.m <= g2.m and g2.n <= g1.n:
        return GradeOrdering.STRONGER
    if g2.m <= g1.m and g1.n <= g2.n:
        return GradeOrdering.WEAKER
    return GradeOrdering.INCOMPARABLE


# -- mask-level operators (hot path) -----------------------------------


def neutrality_mask(fw: ArgumentationFramework, l: int, xmask: int) -> int:
    out = 0
    bit = 1
    for row in fw.attacker_masks:
        if (row & xmask).bit_count() < l:
            out |= bit
        bit <<= 1
    return out


def defense_mask(fw: ArgumentationFramework, m: int, n: int,
                 xmask: int) -> int:
    return neutrality_mask(fw, m, neutrality_mask(fw, n, xmask))


def least_tolerance(fw: ArgumentationFramework, xmask: int) -> int:
    """Smallest l at which the set is l-conflict-free: one more than the
    most attackers any member has inside the set."""
    rows = fw.attacker_masks
    worst = 0
    rest = xmask
    while rest:
        low = rest & -rest
        count = (rows[low.bit_length() - 1] & xmask).bit_count()
        if count > worst:
            worst = count
        rest ^= low
    return worst + 1


def least_fixpoints(fw: ArgumentationFramework, n: int, ms: range,
                    start: int = 0) -> list[int]:
    """For each m of the ascending range ms, the least (m, n) defense
    fixpoint containing start.

    start must defend itself at grade (ms[0], n); it then defends itself
    at every larger m, and each fixpoint lies inside the next, so one
    walk adds arguments and never removes one. ``inside[j]`` counts the
    attackers of j in the set and ``live[t]`` the attackers of t with
    fewer than n of them: adding an argument raises ``inside`` on its
    targets, a target reaching n lowers ``live`` on its own targets, and
    an argument joins once its ``live`` is below m.
    """
    targets = fw.target_indices
    size = len(fw)
    inside = [0] * size
    live = list(fw.in_degrees)
    member = [False] * size
    queue = [i for i in range(size) if start >> i & 1]
    for i in queue:
        member[i] = True
    x = start
    out = []
    for m in ms:
        for t in range(size):
            if live[t] < m and not member[t]:
                member[t] = True
                queue.append(t)
        while queue:
            i = queue.pop()
            x |= 1 << i
            for j in targets[i]:
                count = inside[j] = inside[j] + 1
                if count == n:
                    for t in targets[j]:
                        live[t] -= 1
                        if live[t] < m and not member[t]:
                            member[t] = True
                            queue.append(t)
        out.append(x)
    return out


def defense_orbit(fw: ArgumentationFramework, m: int, n: int,
                  start: int) -> Iterator[int]:
    """The (m, n) defense iterates of a start mask, the start first, up
    to and including the first stage that repeats an earlier one.

    From 0 the stages grow to the least fixpoint and from ``fw.full_mask``
    they shrink to the greatest, so in both cases the last stage is that
    fixpoint; any start comparable with its own image runs monotonically
    into a fixpoint the same way. Other starts may end in a cycle.
    """
    seen = set()
    x = start
    while x not in seen:
        seen.add(x)
        yield x
        x = defense_mask(fw, m, n, x)
    yield x


# -- public operators ---------------------------------------------------


def graded_neutrality(fw: ArgumentationFramework, l: int,
                      x: ArgumentSet) -> ArgumentSet:
    """Arguments with fewer than l attackers inside x."""
    if l < 1:
        raise ValueError("l must be positive")
    return ArgumentSet(fw, neutrality_mask(fw, l, _mask(fw, x)))


def graded_defense(fw: ArgumentationFramework, m: int, n: int,
                   x: ArgumentSet) -> ArgumentSet:
    """Arguments with fewer than m attackers that x fails to
    counter-attack at least n times."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return ArgumentSet(fw, defense_mask(fw, m, n, _mask(fw, x)))


def saturation_bound(fw: ArgumentationFramework) -> int:
    """K = max in-degree + 1. All thresholds at or above K behave
    identically: n_l is constantly full for l >= K, d_mn is constantly
    full for m >= K, and d_mn no longer depends on n for n >= K."""
    return fw.max_in_degree + 1


def unattacked_closure(fw: ArgumentationFramework) -> ArgumentSet:
    """The arguments with no attackers at all: the 1-neutral set of the
    whole framework."""
    return ArgumentSet(fw, neutrality_mask(fw, 1, fw.full_mask))


@dataclass(frozen=True)
class IterationStream:
    """A recorded defense-operator iteration.

    ``stages`` runs from the start value up to and including the first
    repeated stage, so ``stages[stabilized_at] == stages[stabilized_at+1]``
    always holds and ``limit`` is the repeated value. ``grade`` is the
    grade of the operator actually applied at each step (for the upper
    stream this is the swapped grade).
    """

    framework: ArgumentationFramework
    grade: DefenseGrade
    start: ArgumentSet
    stages: tuple[ArgumentSet, ...]
    stabilized_at: int

    @property
    def limit(self) -> ArgumentSet:
        return self.stages[-1]


def _stream(fw: ArgumentationFramework, m: int, n: int, x: ArgumentSet,
            grade: DefenseGrade, top: int) -> IterationStream:
    """Check that x defends itself at grade (m, n), then record the
    defense orbit at ``grade`` from ``top``. The precondition makes that
    orbit monotone, so its repeat is the stage just before it."""
    if _mask(fw, x) & ~defense_mask(fw, m, n, x.mask):
        raise NotExpandableError(
            f"start set {x} is not contained in its own grade-({m},{n}) defense")
    stages = tuple(ArgumentSet(fw, s)
                   for s in defense_orbit(fw, grade.m, grade.n, top))
    return IterationStream(fw, grade, x, stages, len(stages) - 2)


def lfp_from(fw: ArgumentationFramework, m: int, n: int,
             x: ArgumentSet) -> IterationStream:
    """The non-decreasing defense iteration from x; its limit is the
    least fixpoint of the (m, n) defense operator containing x.

    Requires x to defend itself at grade (m, n), otherwise the
    sequence would not be monotone.
    """
    return _stream(fw, m, n, x, DefenseGrade(m, n), x.mask)


def gfp_from(fw: ArgumentationFramework, m: int, n: int,
             x: ArgumentSet) -> IterationStream:
    """The non-increasing iteration of the swapped-grade defense
    operator d_nm starting from the n-neutral set of x; its limit is
    the greatest fixpoint of d_nm inside that start.

    The parameter swap is encoded here once: callers pass the same
    (m, n) they would pass to lfp_from. The same self-defense
    precondition applies.
    """
    return _stream(fw, m, n, x, DefenseGrade(n, m),
                   neutrality_mask(fw, n, x.mask))
