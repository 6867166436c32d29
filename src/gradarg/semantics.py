"""Graded extension families: fixpoint constructions and brute force.

A set is an extension at grade (l, m, n) when it tolerates at most l-1
internal attacks per member (conflict-freeness), defends each member
against all but at most m-1 attackers, each discounted once n
counter-attacks are mustered (self-defense), and, depending on the
semantics, is a fixpoint, the least fixpoint, a maximal such set, or
additionally a fixpoint of the m-neutrality operator (stability).

Two independent routes are provided: direct constructions by fixpoint
iteration (valid on the existence-safe parameter region n >= m, l >= m)
and enumeration (valid anywhere, exponential in the worst case).

Enumeration searches only where extensions can lie. Defense is
monotone, so every complete, preferred or stable extension contains the
least defense fixpoint and every admissible set lies inside the greatest
one; l-conflict-freeness is hereditary, so a depth-first search between
those bounds can drop a branch as soon as its set breaks it. Each set
the search yields is still checked against the unchanged predicate, its
exact least tolerance included, so the bounds only prune.

The extension predicate splits in two parts: the (m, n) part
``_passes_mn``, and l-conflict-freeness, which holds exactly when the
set's ``least_tolerance`` is at most l. The extension rule exists once,
in ``_families``: for one defense grade (m, n), handed the least
fixpoints at (m, n) and at the swapped grade (n, m) as masks, it gives
the family at every l of a range, from one search whose hits pass
``_passes_mn`` and keep the least tolerance the search counted when it
pruned, so no hit is counted twice. ``enumerate_extensions`` reads it
at one l, and the absolute ranking sweep in ``ranking`` at every l in
[1, K]. Both parts back ``is_lmn_admissible``, ``is_lmn_complete`` and
``is_lmn_stable``, and the tests hold the search against an exhaustive
scan over all 2^n subsets that feeds its candidates to those parts too.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import and_, or_
from typing import Iterator, Sequence

from .errors import (ConstraintViolatedError, NoExtensionError,
                     NotAdmissibleError, NotReachingError, TooLargeError)
from .framework import (ArgumentationFramework, ArgumentSet, _mask,
                        _maximal, _reach)
from .kernel import (GradeParams, IterationStream, defense_mask,
                     least_fixpoints, least_tolerance, lfp_from,
                     neutrality_mask)

MAX_ARGS_ENV = "GRADARG_MAX_ARGS"
DEFAULT_MAX_ARGS = 24


class Semantics(Enum):
    ADMISSIBLE = "admissible"
    COMPLETE = "complete"
    GROUNDED = "grounded"
    PREFERRED = "preferred"
    STABLE = "stable"


class Existence(Enum):
    FOUND = "found"
    NONE_EXISTS = "none-exists"


class JustificationMode(Enum):
    CREDULOUS = "credulous"
    SCEPTICAL = "sceptical"


@dataclass(frozen=True)
class Witness:
    """A diagnostic attached to negative verdicts: the set involved and
    the predicate clause it falls foul of."""

    clause: str
    arguments: ArgumentSet | None = None


@dataclass(frozen=True)
class ExtensionFamily:
    semantics: Semantics
    params: GradeParams
    extensions: tuple[ArgumentSet, ...]
    existence: Existence
    witness: Witness | None = None


@dataclass(frozen=True)
class JustifiedReport:
    semantics: Semantics
    params: GradeParams
    mode: JustificationMode
    arguments: ArgumentSet


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    params: GradeParams
    lower: IterationStream
    witness: Witness


def resolve_max_args(explicit: int | None = None) -> int:
    """Enumeration cap: explicit argument, else GRADARG_MAX_ARGS, else 24.

    A cap below 1 would refuse every framework, so it is rejected as an
    invalid setting with ValueError.
    """
    if explicit is not None:
        cap, source = explicit, "max_args"
    else:
        env = os.environ.get(MAX_ARGS_ENV)
        if env is None:
            return DEFAULT_MAX_ARGS
        try:
            cap, source = int(env), MAX_ARGS_ENV
        except ValueError:
            raise ValueError(f"{MAX_ARGS_ENV} must be an integer, got {env!r}")
    if cap < 1:
        raise ValueError(f"{source} must be positive, got {cap}")
    return cap


def _check_cap(count: int, max_args: int | None, what: str = "arguments",
               limit: str = "the enumeration cap") -> None:
    """Raise TooLargeError when count exceeds the resolved cap."""
    cap = resolve_max_args(max_args)
    if count > cap:
        raise TooLargeError(f"{count} {what} exceed {limit} {cap}")


# -- predicates ---------------------------------------------------------


def is_l_conflict_free(fw: ArgumentationFramework, l: int,
                       x: ArgumentSet) -> bool:
    return least_tolerance(fw, _mask(fw, x)) <= l


def _passes_mn(fw: ArgumentationFramework, semantics: Semantics, m: int,
               n: int, x: int) -> bool:
    """The (m, n) part of the extension predicate on the mask x:
    containment in its own defense (admissible), equality with it
    (complete, and the candidates of preferred and grounded), or equality
    with it and with its own m-neutral set (stable). x is then an
    extension at exactly the l from its least tolerance up."""
    d = defense_mask(fw, m, n, x)
    if x & ~d or (d != x and semantics is not Semantics.ADMISSIBLE):
        return False
    return semantics is not Semantics.STABLE or neutrality_mask(fw, m, x) == x


def _satisfies(fw: ArgumentationFramework, semantics: Semantics,
               params: GradeParams, x: int) -> bool:
    """The extension predicate on a mask at (l, m, n). Defense is tested
    first, since the tolerance costs a count over every member."""
    return (_passes_mn(fw, semantics, params.m, params.n, x)
            and least_tolerance(fw, x) <= params.l)


def is_lmn_admissible(fw: ArgumentationFramework, params: GradeParams,
                      x: ArgumentSet) -> bool:
    return _satisfies(fw, Semantics.ADMISSIBLE, params, _mask(fw, x))


def is_lmn_complete(fw: ArgumentationFramework, params: GradeParams,
                    x: ArgumentSet) -> bool:
    return _satisfies(fw, Semantics.COMPLETE, params, _mask(fw, x))


def is_lmn_stable(fw: ArgumentationFramework, params: GradeParams,
                  x: ArgumentSet) -> bool:
    """Stable: a defense fixpoint that is also a fixpoint of m-neutrality
    (so it keeps everything it fails to attack m times out) and is
    l-conflict-free."""
    return _satisfies(fw, Semantics.STABLE, params, _mask(fw, x))


# -- enumeration --------------------------------------------------------


def _candidates(fw: ArgumentationFramework, l: int, floor: int,
                ceiling: int) -> Iterator[tuple[int, int]]:
    """Every l-conflict-free mask x with floor <= x <= ceiling, lazily,
    with its least tolerance; floor must lie inside ceiling.

    A depth-first search over the arguments of ceiling - floor in index
    order: each node adds one argument above the last one added, so every
    set is reached once. l-conflict-freeness is hereditary, so a branch
    ends as soon as ``least_tolerance`` of its set exceeds l; a set that
    stays keeps the tolerance it was pruned with.
    """
    t = least_tolerance(fw, floor)
    if t > l:
        return
    rest = ceiling & ~floor
    free = [1 << i for i in range(rest.bit_length()) if rest >> i & 1]
    stack = [(floor, t, 0)]
    while stack:
        x, t, k = stack.pop()
        yield x, t
        for j in range(k, len(free)):
            y = x | free[j]
            u = least_tolerance(fw, y)
            if u <= l:
                stack.append((y, u, j + 1))


def _families(fw: ArgumentationFramework, semantics: Semantics, m: int,
              n: int, ls: range, least: int,
              swapped: int) -> list[Sequence[int]]:
    """The extension family at (l, m, n) for each l of the ascending
    range ls, as masks in search order.

    least is the least (m, n) defense fixpoint and swapped the least
    (n, m) one, as ``least_fixpoints`` walks give them. Grounded needs
    nothing more than the least tolerance of least: every fixpoint
    contains the least one, so it is the least complete extension at
    each l where it is l-conflict-free, and no complete extension exists
    at the others. The other semantics share one ``_candidates`` search
    at the largest l: l-conflict-free sets inside the greatest (m, n)
    fixpoint, the m-neutral set of swapped; for complete, preferred and
    stable they also contain the least one. A stable extension is its
    own m-neutral set, hence m-conflict-free, so stable searches at
    tolerance min(l, m). Each hit that passes ``_passes_mn`` keeps the
    least tolerance the search pruned it with, so every l filters the
    hits without searching or counting again; preferred then keeps the
    maximal ones.
    """
    if semantics is Semantics.GROUNDED:
        hit, min_l = (least,), least_tolerance(fw, least)
        return [hit if min_l <= l else () for l in ls]
    greatest = neutrality_mask(fw, m, swapped)
    floor = 0 if semantics is Semantics.ADMISSIBLE else least
    top = min(ls[-1], m) if semantics is Semantics.STABLE else ls[-1]
    hits = [(x, t) for x, t in _candidates(fw, top, floor, greatest)
            if _passes_mn(fw, semantics, m, n, x)]
    preferred = semantics is Semantics.PREFERRED
    out = []
    for l in ls:
        family = [x for x, t in hits if t <= l]
        out.append(_maximal(family) if preferred else family)
    return out


def enumerate_extensions(fw: ArgumentationFramework, semantics: Semantics,
                         params: GradeParams,
                         max_args: int | None = None) -> ExtensionFamily:
    """Search the lattice between the defense fixpoints for the requested
    extension predicate.

    Valid at every parameter triple; exponential in the argument count
    in the worst case, hence the cap. The family is ``_families`` at the
    one point l, from one-point ``least_fixpoints`` walks at (m, n) and,
    unless m == n, where the swapped grade is the same grade, at (n, m).
    Grounded reads only the (m, n) fixpoint, so it walks once.
    Every candidate is checked against the predicate itself, so the
    answers are those of a full subset scan. Extensions come out sorted
    by (size, bitmask).
    """
    _check_cap(len(fw), max_args)
    l, m, n = params.l, params.m, params.n
    [least] = least_fixpoints(fw, n, range(m, m + 1))
    [swapped] = ([least] if m == n or semantics is Semantics.GROUNDED
                 else least_fixpoints(fw, m, range(n, n + 1)))
    [family] = _families(fw, semantics, m, n, range(l, l + 1), least, swapped)
    if semantics is Semantics.GROUNDED and not family:
        return _no_grounded(fw, params, least)
    return _family(fw, semantics, params, family)


def _no_grounded(fw: ArgumentationFramework, params: GradeParams,
                 least: int) -> ExtensionFamily:
    return ExtensionFamily(
        Semantics.GROUNDED, params, (), Existence.NONE_EXISTS,
        Witness("no l-conflict-free defense fixpoint exists; "
                "least defense fixpoint shown", ArgumentSet(fw, least)))


def _family(fw: ArgumentationFramework, semantics: Semantics,
            params: GradeParams, masks: Sequence[int]) -> ExtensionFamily:
    masks = sorted(masks, key=lambda x: (x.bit_count(), x))
    return ExtensionFamily(
        semantics, params,
        tuple(ArgumentSet(fw, x) for x in masks),
        Existence.FOUND if masks else Existence.NONE_EXISTS,
        None if masks else Witness("no subset satisfies the predicate"))


# -- constructions ------------------------------------------------------


def _closure(fw: ArgumentationFramework, params: GradeParams,
             x: ArgumentSet) -> IterationStream:
    """The gate every construction passes: existence-safe params, then
    an admissible start, then the defense iteration from it."""
    if not params.existence_safe:
        raise ConstraintViolatedError(
            f"params (l={params.l}, m={params.m}, n={params.n}) lie outside "
            "the existence-safe region (need n >= m and l >= m)")
    if not is_lmn_admissible(fw, params, x):
        raise NotAdmissibleError(
            f"start set {x} is not ({params.l},{params.m},{params.n})-admissible")
    return lfp_from(fw, params.m, params.n, x)


def _conflict_free_closure(fw: ArgumentationFramework, params: GradeParams,
                           x: ArgumentSet, limit: ArgumentSet) -> ArgumentSet:
    """The closure limit of x, unless it has too many internal attacks."""
    if least_tolerance(fw, limit.mask) > params.l:
        raise NoExtensionError(
            f"no ({params.l},{params.m},{params.n})-complete extension "
            f"contains {x}: its defense closure is not "
            f"{params.l}-conflict-free", Witness(
                "defense closure with too many internal attacks", limit))
    return limit


def grounded_by_construction(fw: ArgumentationFramework,
                             params: GradeParams) -> ExtensionFamily:
    """The least complete extension, built by iterating defense from
    the empty set; only defined on the existence-safe region.

    The least fixpoint is always l-conflict-free there, so no check is
    needed. Take n >= m and an m-conflict-free X, and suppose some a in
    d_mn(X) had m attackers in d_mn(X). At most m-1 of a's attackers
    escape n counter-attacks from X, so one of them, b in d_mn(X), has
    at least n >= m attackers in X. By the same count one of those, c
    in X, has at least n >= m attackers in X, which contradicts X being
    m-conflict-free. So d_mn keeps m-conflict-freeness, and iterating
    it from the empty set gives an m-conflict-free least fixpoint. Its
    least tolerance is at most m, which is at most l on the
    existence-safe region that ``_closure`` enforces.
    """
    least = _closure(fw, params, fw.empty_set()).limit.mask
    return _family(fw, Semantics.GROUNDED, params, (least,))


def complete_closure(fw: ArgumentationFramework, params: GradeParams,
                     x: ArgumentSet) -> ArgumentSet:
    """The smallest complete extension containing an admissible set.

    A start that is l-conflict-free but not m-conflict-free (possible
    only when l > m) can grow into a fixpoint with too many internal
    attacks. Any complete superset of the start would have to contain
    that fixpoint, and conflict-freeness survives taking subsets, so in
    that case no complete extension contains the start at all.
    """
    return _conflict_free_closure(fw, params, x,
                                  _closure(fw, params, x).limit)


def preferred_by_reachability(fw: ArgumentationFramework,
                              params: GradeParams,
                              x: ArgumentSet) -> ArgumentSet:
    """The defense closure of an admissible set that attack-reaches the
    whole graph.

    The closure is always the smallest complete extension containing the
    start. With l == m it is also maximal, hence preferred: nothing
    outside it can join without either losing its defense chain back to
    the start or breaching the conflict bound. With l > m the extra
    conflict tolerance lets mutually attacking arguments defend each
    other in a cycle that never bottoms out in the start, so a strictly
    larger complete extension may exist.
    """
    limit = _closure(fw, params, x).limit
    reached = _reach(fw.target_masks, x.mask)
    if reached != fw.full_mask:
        missing = ArgumentSet(fw, fw.full_mask & ~reached)
        raise NotReachingError(
            f"start set {x} does not attack-reach {missing}")
    return _conflict_free_closure(fw, params, x, limit)


def stable_convergence_check(fw: ArgumentationFramework, params: GradeParams,
                             x: ArgumentSet) -> ConvergenceReport:
    """Whether the lower defense stream meets its upper shadow.

    The upper stream applies n-neutrality to each lower stage; the lower
    stages grow, so the upper ones shrink, and on a finite graph the
    upper limit is the n-neutral set of the lower limit. When the two
    limits coincide, that common set is the smallest stable extension
    containing the start. No separate stability check is needed: if
    n_n(L) = L for the least fixpoint L, then d_mn(L) = n_m(n_n(L)) =
    n_m(L) = L, so L is its own m-neutral set and every member has fewer
    than m attackers in L. Its least tolerance is then at most m, which
    is at most l on the existence-safe region that ``_closure`` enforces.
    """
    lower = _closure(fw, params, x)
    upper = neutrality_mask(fw, params.n, lower.limit.mask)
    if upper != lower.limit.mask:
        return ConvergenceReport(
            False, params, lower,
            Witness("upper limit differs from the least fixpoint",
                    ArgumentSet(fw, upper)))
    return ConvergenceReport(
        True, params, lower,
        Witness("smallest stable extension containing the start",
                lower.limit))


def justified(fw: ArgumentationFramework, semantics: Semantics,
              params: GradeParams, mode: JustificationMode,
              max_args: int | None = None) -> JustifiedReport:
    """Credulous = union of the family; sceptical = intersection.

    Over an empty family the sceptical set is everything (empty
    intersection over a finite universe) and the credulous set is empty.
    """
    masks = (ext.mask for ext in
             enumerate_extensions(fw, semantics, params, max_args).extensions)
    mask = (reduce(or_, masks, 0) if mode is JustificationMode.CREDULOUS
            else reduce(and_, masks, fw.full_mask))
    return JustifiedReport(semantics, params, mode, ArgumentSet(fw, mask))
