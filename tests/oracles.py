"""Independent reference implementations used to cross-check the package.

Everything here computes over frozensets of label strings and plain
(source, target) attack pairs, with naive powerset scans and structural
recursion. Nothing is shared with the package's bitmask kernel or its
truth-table engine; agreement between the two routes is what the tests
assert.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from gradarg.logic import And, Atom, Implies, Not, Or

Labels = tuple[str, ...]
Attacks = Iterable[tuple[str, str]]
ArgSet = frozenset[str]


def powerset(items: Iterable[str]) -> Iterator[ArgSet]:
    pool = sorted(items)
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            yield frozenset(combo)


def attackers_of(attacks: Attacks, x: str) -> ArgSet:
    return frozenset(src for src, dst in attacks if dst == x)


# -- textbook Dung ---------------------------------------------------------


def dung_neutrality(labels: Labels, attacks: Attacks, xs: ArgSet) -> ArgSet:
    attacked = {dst for src, dst in attacks if src in xs}
    return frozenset(lab for lab in labels if lab not in attacked)


def dung_defense(labels: Labels, attacks: Attacks, xs: ArgSet) -> ArgSet:
    """Characteristic function: arguments all of whose attackers are
    attacked by the given set."""
    counter = {dst for src, dst in attacks if src in xs}
    return frozenset(
        lab for lab in labels
        if all(att in counter for att in attackers_of(attacks, lab)))


def dung_conflict_free(attacks: Attacks, xs: ArgSet) -> bool:
    return not any(src in xs and dst in xs for src, dst in attacks)


def dung_grounded(labels: Labels, attacks: Attacks) -> ArgSet:
    cur: ArgSet = frozenset()
    while True:
        nxt = dung_defense(labels, attacks, cur)
        if nxt == cur:
            return cur
        cur = nxt


def dung_complete(labels: Labels, attacks: Attacks) -> set[ArgSet]:
    return {xs for xs in powerset(labels)
            if dung_conflict_free(attacks, xs)
            and dung_defense(labels, attacks, xs) == xs}


def dung_preferred(labels: Labels, attacks: Attacks) -> set[ArgSet]:
    completes = dung_complete(labels, attacks)
    return {xs for xs in completes
            if not any(xs < ys for ys in completes)}


def dung_stable(labels: Labels, attacks: Attacks) -> set[ArgSet]:
    out = set()
    for xs in powerset(labels):
        if not dung_conflict_free(attacks, xs):
            continue
        attacked = {dst for src, dst in attacks if src in xs}
        if attacked >= frozenset(labels) - xs:
            out.add(xs)
    return out


# -- graded operators, straight from the counting definitions --------------


def graded_neutrality(labels: Labels, attacks: Attacks, l: int,
                      xs: ArgSet) -> ArgSet:
    return frozenset(lab for lab in labels
                     if len(attackers_of(attacks, lab) & xs) < l)


def graded_defense(labels: Labels, attacks: Attacks, m: int, n: int,
                   xs: ArgSet) -> ArgSet:
    """Fewer than m attackers each having fewer than n counter-attackers.

    Deliberately written from the counting definition, not as a
    composition of neutrality calls: the composition identity is one of
    the properties under test.
    """
    out = []
    for lab in labels:
        live = [att for att in attackers_of(attacks, lab)
                if len(attackers_of(attacks, att) & xs) < n]
        if len(live) < m:
            out.append(lab)
    return frozenset(out)


def l_conflict_free(labels: Labels, attacks: Attacks, l: int,
                    xs: ArgSet) -> bool:
    return all(len(attackers_of(attacks, lab) & xs) < l for lab in xs)


def lmn_admissible(labels: Labels, attacks: Attacks, l: int, m: int, n: int,
                   xs: ArgSet) -> bool:
    return (l_conflict_free(labels, attacks, l, xs)
            and xs <= graded_defense(labels, attacks, m, n, xs))


def lmn_complete(labels: Labels, attacks: Attacks, l: int, m: int, n: int,
                 xs: ArgSet) -> bool:
    return (l_conflict_free(labels, attacks, l, xs)
            and xs == graded_defense(labels, attacks, m, n, xs))


def lmn_stable(labels: Labels, attacks: Attacks, l: int, m: int, n: int,
               xs: ArgSet) -> bool:
    return (xs == graded_defense(labels, attacks, m, n, xs)
            and xs == graded_neutrality(labels, attacks, m, xs)
            and l_conflict_free(labels, attacks, l, xs))


def extension_family(labels: Labels, attacks: Attacks, semantics: str,
                     l: int, m: int, n: int) -> set[ArgSet]:
    """Brute-force family for one of admissible/complete/grounded/
    preferred/stable; grounded yields at most one set (the least
    complete extension when a unique minimum exists)."""
    if semantics == "admissible":
        return {xs for xs in powerset(labels)
                if lmn_admissible(labels, attacks, l, m, n, xs)}
    if semantics == "stable":
        return {xs for xs in powerset(labels)
                if lmn_stable(labels, attacks, l, m, n, xs)}
    completes = {xs for xs in powerset(labels)
                 if lmn_complete(labels, attacks, l, m, n, xs)}
    if semantics == "complete":
        return completes
    if semantics == "preferred":
        return {xs for xs in completes
                if not any(xs < ys for ys in completes)}
    if semantics == "grounded":
        least = {xs for xs in completes if all(xs <= ys for ys in completes)}
        return least
    raise ValueError(semantics)


def naive_lfp(labels: Labels, attacks: Attacks, m: int, n: int,
              start: ArgSet = frozenset()) -> ArgSet:
    cur = start
    while True:
        nxt = graded_defense(labels, attacks, m, n, cur)
        if nxt == cur:
            return cur
        cur = nxt


def unattacked(labels: Labels, attacks: Attacks) -> ArgSet:
    return frozenset(lab for lab in labels
                     if not attackers_of(attacks, lab))


def saturation_bound(labels: Labels, attacks: Attacks) -> int:
    return max((len(attackers_of(attacks, lab)) for lab in labels),
               default=0) + 1


# -- the attack relation from its pairs -------------------------------------


def index_pairs(labels: Labels, attacks: Attacks) -> list[tuple[int, int]]:
    """The distinct attacks as (source index, target index), sorted."""
    index = {lab: i for i, lab in enumerate(labels)}
    return sorted({(index[src], index[dst]) for src, dst in attacks})


def reach(pairs: Iterable[tuple[int, int]], frontier: Iterable[int],
          backward: bool = False) -> set[int]:
    """The indices reached from the frontier in one or more steps along
    the pairs, or against them when backward."""
    step: dict[int, set[int]] = {}
    for src, dst in pairs:
        if backward:
            src, dst = dst, src
        step.setdefault(src, set()).add(dst)
    out: set[int] = set()
    todo = list(frontier)
    while todo:
        for j in step.get(todo.pop(), ()):
            if j not in out:
                out.add(j)
                todo.append(j)
    return out


def weak_components(size: int,
                    pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The weakly connected components as sorted index lists, ordered by
    smallest member."""
    pairs = list(pairs)
    both = pairs + [(d, s) for s, d in pairs]
    out: list[list[int]] = []
    placed: set[int] = set()
    for i in range(size):
        if i not in placed:
            members = sorted(reach(both, [i]) | {i})
            placed.update(members)
            out.append(members)
    return out


# -- justification and rankings --------------------------------------------


def justified_set(labels: Labels, attacks: Attacks, semantics: str,
                  l: int, m: int, n: int, mode: str) -> ArgSet:
    family = extension_family(labels, attacks, semantics, l, m, n)
    if mode == "credulous":
        out: ArgSet = frozenset()
        for xs in family:
            out |= xs
        return out
    if mode == "sceptical":
        out = frozenset(labels)
        for xs in family:
            out &= xs
        return out
    raise ValueError(mode)


def absolute_signature(labels: Labels, attacks: Attacks,
                       semantics: str) -> dict[str, set[tuple[int, int, int]]]:
    k = saturation_bound(labels, attacks)
    grades: dict[str, set[tuple[int, int, int]]] = {lab: set() for lab in labels}
    for l in range(1, k + 1):
        for m in range(1, k + 1):
            for n in range(1, k + 1):
                for lab in justified_set(labels, attacks, semantics,
                                         l, m, n, "sceptical"):
                    grades[lab].add((l, m, n))
    return grades


def contextual_signature(labels: Labels, attacks: Attacks,
                         start: ArgSet = frozenset(),
                         ) -> dict[str, set[tuple[int, int]]]:
    k = saturation_bound(labels, attacks)
    grades: dict[str, set[tuple[int, int]]] = {lab: set() for lab in labels}
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            union = set(start)
            seen = {frozenset(start)}
            cur = frozenset(start)
            while True:
                cur = graded_defense(labels, attacks, m, n, cur)
                if cur in seen:
                    break
                seen.add(cur)
                union |= cur
            for lab in union:
                grades[lab].add((m, n))
    return grades


def rank_classes(labels: Labels, grades: dict[str, frozenset],
                 ) -> tuple[tuple[str, ...], ...]:
    """Arguments with equal grade sets, largest set first, ties broken by
    first label."""
    by_sig: dict[frozenset, list[str]] = {}
    for lab in labels:
        by_sig.setdefault(grades[lab], []).append(lab)
    classes = [tuple(sorted(members)) for members in by_sig.values()]
    return tuple(sorted(classes, key=lambda c: (-len(grades[c[0]]), c)))


def hasse_edges(classes: tuple[tuple[str, ...], ...],
                grades: dict[str, frozenset]) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j) of strict grade-set inclusion between classes,
    by testing every middle class k of every pair."""
    sigs = [grades[c[0]] for c in classes]
    above = [[b < a for b in sigs] for a in sigs]
    edges = []
    for i in range(len(sigs)):
        for j in range(len(sigs)):
            if above[i][j] and not any(above[i][k] and above[k][j]
                                       for k in range(len(sigs))):
                edges.append((i, j))
    return tuple(edges)


# -- propositional logic, by structural recursion ---------------------------


def formula_atoms(f) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.name})
    if isinstance(f, Not):
        return formula_atoms(f.operand)
    return formula_atoms(f.left) | formula_atoms(f.right)


def evaluate(f, row: dict[str, bool]) -> bool:
    if isinstance(f, Atom):
        return row[f.name]
    if isinstance(f, Not):
        return not evaluate(f.operand, row)
    if isinstance(f, And):
        return evaluate(f.left, row) and evaluate(f.right, row)
    if isinstance(f, Or):
        return evaluate(f.left, row) or evaluate(f.right, row)
    if isinstance(f, Implies):
        return (not evaluate(f.left, row)) or evaluate(f.right, row)
    raise TypeError(type(f))


def rows(formulas) -> Iterator[dict[str, bool]]:
    names = sorted(frozenset().union(*(formula_atoms(f) for f in formulas))
                   if formulas else frozenset())
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def consistent(formulas) -> bool:
    formulas = list(formulas)
    return any(all(evaluate(f, row) for f in formulas)
               for row in rows(formulas))


def entails(premises, goal) -> bool:
    premises = list(premises)
    return all(evaluate(goal, row)
               for row in rows(premises + [goal])
               if all(evaluate(f, row) for f in premises))


def tautology(f) -> bool:
    return entails([], f)


def _undouble(f):
    while isinstance(f, Not) and isinstance(f.operand, Not):
        f = f.operand.operand
    return f


def complementary(f, g) -> bool:
    """Whether one formula is the negation of the other once double
    negations at the top are collapsed; the attack rule's clash."""
    a, b = _undouble(f), _undouble(g)
    return a == Not(b) or b == Not(a)


def stratum_of(strata, f) -> int:
    """The 1-based level of the stratum holding f, strongest first."""
    return next(level for level, stratum in enumerate(strata, start=1)
                if f in stratum)


def preferred_subtheories(strata) -> set[frozenset]:
    """Maximal consistent prefixes, built stratum by stratum; strata is
    a sequence of formula tuples, strongest first. Maximality is by set
    inclusion at every level, relative to what earlier levels fixed."""
    partial: set[frozenset] = {frozenset()}
    for level in strata:
        pool = sorted(set(level), key=str)
        extended: set[frozenset] = set()
        for base in partial:
            good = [frozenset(combo)
                    for k in range(len(pool) + 1)
                    for combo in itertools.combinations(pool, k)
                    if consistent(base | frozenset(combo))]
            maximal = [e for e in good
                       if not any(e < other for other in good)]
            extended |= {base | extra for extra in maximal}
        partial = extended
    return partial


def minimal_entailers(universe, goal) -> set[frozenset]:
    """Consistent, subset-minimal premise sets from the universe that
    entail the goal; the argument-construction rule."""
    pool = sorted(set(universe), key=str)
    found: set[frozenset] = set()
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if consistent(cand) and entails(cand, goal):
                found.add(cand)
    return found
