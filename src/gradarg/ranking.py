"""Argument rankings from graded justification sweeps.

An argument's contextual signature collects the defense grades (m, n)
at which it enters the iterated defense of a fixed context set; its
absolute signature collects the triples (l, m, n) at which it is
sceptically justified under a chosen graded semantics. Ranking is
signature inclusion: an argument sits at least as high as another when
it is justified everywhere the other is. Sweeps run over the saturated
window [1, K] per coordinate, beyond which no operator changes.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .framework import ArgumentationFramework, ArgumentSet
from .kernel import (defense_mask, defense_orbit, least_fixpoints,
                     least_tolerance, neutrality_mask, saturation_bound)
from .semantics import Semantics, _candidates, _check_cap, _maximal


class Relation(Enum):
    ABOVE = "above"
    BELOW = "below"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class JustificationSignature:
    """The grade points at which one argument is justified."""

    argument: str
    grades: frozenset[tuple[int, ...]]
    bound: int
    kind: str


class ArgumentPartialOrder:
    """Signature-inclusion order over a framework's arguments."""

    def __init__(self, framework: ArgumentationFramework,
                 signatures: dict[str, JustificationSignature],
                 kind: str) -> None:
        self.framework = framework
        self.signatures = signatures
        self.kind = kind

    def at_least(self, a: str, b: str) -> bool:
        """a ranks at least as high as b: b's grades are a subset of a's."""
        return self.signatures[b].grades <= self.signatures[a].grades

    def compare(self, a: str, b: str) -> Relation:
        ab, ba = self.at_least(a, b), self.at_least(b, a)
        if ab and ba:
            return Relation.EQUIVALENT
        if ab:
            return Relation.ABOVE
        if ba:
            return Relation.BELOW
        return Relation.INCOMPARABLE

    def strictly_above(self, a: str, b: str) -> bool:
        return self.compare(a, b) is Relation.ABOVE

    def equivalence_classes(self) -> tuple[tuple[str, ...], ...]:
        """Classes of arguments with identical signatures, largest
        signature first, ties broken by first label."""
        by_sig: dict[frozenset, list[str]] = {}
        for label in self.framework.labels:
            by_sig.setdefault(self.signatures[label].grades, []).append(label)
        classes = [tuple(sorted(members)) for members in by_sig.values()]
        return tuple(sorted(
            classes, key=lambda c: (-len(self.signatures[c[0]].grades), c)))

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Cover edges between equivalence-class indices, higher to lower."""
        classes = self.equivalence_classes()
        reps = [c[0] for c in classes]
        above = [[self.strictly_above(a, b) for b in reps] for a in reps]
        edges = []
        for i in range(len(reps)):
            for j in range(len(reps)):
                if above[i][j] and not any(
                        above[i][k] and above[k][j] for k in range(len(reps))):
                    edges.append((i, j))
        return tuple(edges)

    def to_dot(self) -> str:
        classes = self.equivalence_classes()
        lines = ["digraph ranking {", "  rankdir=TB;", "  node [shape=box];"]
        for i, members in enumerate(classes):
            label = ", ".join(members)
            lines.append(f'  c{i} [label="{label}"];')
        for i, j in self.hasse_edges():
            lines.append(f"  c{i} -> c{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- signature bookkeeping -----------------------------------------------


def _record(grades: list[set], mask: int, point: tuple[int, ...]) -> None:
    """Add the grade point to the grade set of every member of mask."""
    for i, bit in enumerate(reversed(f"{mask:b}")):
        if bit == "1":
            grades[i].add(point)


def _signatures(fw: ArgumentationFramework, grades: list[set], bound: int,
                kind: str) -> dict[str, JustificationSignature]:
    return {lab: JustificationSignature(lab, frozenset(g), bound, kind)
            for lab, g in zip(fw.labels, grades)}


# -- contextual (defense-iteration) signatures ---------------------------


def contextual_signature(
        fw: ArgumentationFramework,
        x: ArgumentSet | None = None) -> dict[str, JustificationSignature]:
    """Per-argument sets of (m, n) pairs at which the argument enters
    the iterated defense of the context (empty context by default): the
    union of its defense orbit, which closes once a stage repeats.

    Self-defense is monotone in m, and d_Kn is the full set, so each
    column n splits at the least m0 at which the context defends itself
    (1 for the empty context). Below m0 the orbit may cycle, so its
    stages are collected one by one. From m0 on the orbit climbs to the
    least fixpoint containing the context, and one ``least_fixpoints``
    walk gives those for the rest of the column.
    """
    start = 0 if x is None else x.mask
    if x is not None and x.framework != fw:
        raise ValueError("argument set belongs to a different framework")
    k = saturation_bound(fw)
    grades: list[set] = [set() for _ in range(len(fw))]
    for n in range(1, k + 1):
        m0 = 1
        while start and start & ~defense_mask(fw, m0, n, start):
            union = 0
            for stage in defense_orbit(fw, m0, n, start):
                union |= stage
            _record(grades, union, (m0, n))
            m0 += 1
        column = least_fixpoints(fw, n, range(m0, k + 1), start)
        for m, (union, _) in enumerate(column, start=m0):
            _record(grades, union, (m, n))
    return _signatures(fw, grades, k, "contextual")


def contextual_rank(fw: ArgumentationFramework,
                    x: ArgumentSet | None = None) -> ArgumentPartialOrder:
    return ArgumentPartialOrder(fw, contextual_signature(fw, x), "contextual")


# -- absolute (sceptical-justification) signatures -----------------------


def _sceptical_per_l(fw: ArgumentationFramework, semantics: Semantics,
                     m: int, n: int, bound: int, least: int,
                     greatest: int) -> list[int]:
    """Sceptically justified masks for l = 1..bound at one defense grade,
    for preferred or stable, given the least and greatest (m, n) defense
    fixpoints (the caller derives the greatest from the least fixpoint at
    the swapped grade).

    One search collects every defense fixpoint together with the least l
    making it conflict-free; each l then filters that list without
    searching again. Every fixpoint lies between the least and the
    greatest one, and a stable one is m-conflict-free, so the search runs
    on that interval at tolerance bound, or min(bound, m) for stable.
    """
    tolerance = min(bound, m) if semantics is Semantics.STABLE else bound
    fixpoints: list[tuple[int, int]] = []
    for x in _candidates(fw, tolerance, least, greatest):
        if defense_mask(fw, m, n, x) == x:
            if semantics is Semantics.STABLE and neutrality_mask(
                    fw, m, x) != x:
                continue
            fixpoints.append((x, least_tolerance(fw, x)))
    out = []
    for l in range(1, bound + 1):
        family = [x for x, min_l in fixpoints if min_l <= l]
        if semantics is Semantics.PREFERRED:
            family = _maximal(family)
        mask = fw.full_mask
        for x in family:
            mask &= x
        out.append(mask)
    return out


def absolute_signature(
        fw: ArgumentationFramework, semantics: Semantics,
        max_args: int | None = None) -> dict[str, JustificationSignature]:
    """Per-argument sets of (l, m, n) triples at which the argument is
    sceptically justified under the given semantics; an empty extension
    family justifies everything (empty intersection).

    One ``least_fixpoints`` walk per column n gives the least defense
    fixpoint at every (m, n). Grounded needs nothing more: the least
    fixpoint is the unique minimal fixpoint, hence the least complete
    extension exactly when it is l-conflict-free, and the walk's counters
    already hold its least tolerance. Preferred and stable search
    between the least fixpoint and the greatest, which is the m-neutral
    set of the least fixpoint at the swapped grade (n, m), read from the
    column at m.
    """
    if semantics not in (Semantics.GROUNDED, Semantics.PREFERRED,
                         Semantics.STABLE):
        raise ValueError(
            "absolute rankings are defined for grounded, preferred, stable")
    _check_cap(len(fw), max_args)
    k = saturation_bound(fw)
    ms = range(1, k + 1)
    grades: list[set] = [set() for _ in range(len(fw))]
    lfps = [least_fixpoints(fw, n, ms) for n in ms]
    for n in ms:
        for m, (least, min_l) in enumerate(lfps[n - 1], start=1):
            if semantics is Semantics.GROUNDED:
                per_l = [least if l >= min_l else fw.full_mask for l in ms]
            else:
                greatest = neutrality_mask(fw, m, lfps[m - 1][n - 1][0])
                per_l = _sceptical_per_l(fw, semantics, m, n, k, least,
                                         greatest)
            for l, mask in enumerate(per_l, start=1):
                _record(grades, mask, (l, m, n))
    return _signatures(fw, grades, k, f"absolute:{semantics.value}")


def absolute_rank(fw: ArgumentationFramework, semantics: Semantics,
                  max_args: int | None = None) -> ArgumentPartialOrder:
    return ArgumentPartialOrder(
        fw, absolute_signature(fw, semantics, max_args),
        f"absolute:{semantics.value}")


# -- the contextual/grounded bridge --------------------------------------


def contextual_equals_grounded(
        fw: ArgumentationFramework,
        max_args: int | None = None) -> tuple[bool, tuple[str, str] | None]:
    """Whether the empty-context ranking and the absolute grounded
    ranking agree on every ordered pair; returns the first disagreeing
    pair otherwise.

    Both orders read their least fixpoints from the same
    ``least_fixpoints`` column walks, so their agreement does not check
    that walk. The tests keep the two sides independent instead: each
    signature is held to the brute-force sweeps of ``tests/oracles.py``,
    and the walks to ``defense_orbit``. The orders must coincide: grade
    points without a grounded extension justify every argument alike,
    so only fixpoint memberships can separate two arguments, and those
    memberships are exactly what the contextual sweep records.
    Restricting either side to part of the grade space breaks the match,
    because a membership difference can live at a single (m, n) point.
    """
    contextual = contextual_rank(fw)
    grounded = absolute_rank(fw, Semantics.GROUNDED, max_args=max_args)
    for a in fw.labels:
        for b in fw.labels:
            if contextual.at_least(a, b) != grounded.at_least(a, b):
                return False, (a, b)
    return True, None
