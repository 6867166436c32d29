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
from .kernel import (defense_mask, defense_orbit, least_tolerance,
                     neutrality_mask, saturation_bound)
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


# -- contextual (defense-iteration) signatures ---------------------------


def contextual_signature(
        fw: ArgumentationFramework,
        x: ArgumentSet | None = None) -> dict[str, JustificationSignature]:
    """Per-argument sets of (m, n) pairs at which the argument enters
    the iterated defense of the context (empty context by default): the
    union of its defense orbit, which closes once a stage repeats."""
    start = 0 if x is None else x.mask
    if x is not None and x.framework != fw:
        raise ValueError("argument set belongs to a different framework")
    k = saturation_bound(fw)
    grades: dict[str, set[tuple[int, int]]] = {lab: set() for lab in fw.labels}
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            union = 0
            for stage in defense_orbit(fw, m, n, start):
                union |= stage
            for arg in ArgumentSet(fw, union):
                grades[arg.label].add((m, n))
    return {lab: JustificationSignature(lab, frozenset(g), k, "contextual")
            for lab, g in grades.items()}


def contextual_rank(fw: ArgumentationFramework,
                    x: ArgumentSet | None = None) -> ArgumentPartialOrder:
    return ArgumentPartialOrder(fw, contextual_signature(fw, x), "contextual")


# -- absolute (sceptical-justification) signatures -----------------------


def _sceptical_per_l(fw: ArgumentationFramework, semantics: Semantics,
                     m: int, n: int, bound: int) -> list[int]:
    """Sceptically justified masks for l = 1..bound at one defense grade.

    One search collects every defense fixpoint together with the least l
    making it conflict-free; each l then filters that list without
    searching again. Every fixpoint lies between the least and the
    greatest one, and a stable one is m-conflict-free, so the search runs
    on that interval at tolerance bound, or min(bound, m) for stable.
    Grounded short-cuts through the least fixpoint, which is the unique
    minimal fixpoint, hence the least complete extension exactly when it
    is conflict-free.
    """
    full = fw.full_mask
    *_, least = defense_orbit(fw, m, n, 0)
    if semantics is Semantics.GROUNDED:
        min_l = least_tolerance(fw, least)
        return [least if l >= min_l else full for l in range(1, bound + 1)]
    *_, greatest = defense_orbit(fw, m, n, full)
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
        mask = full
        for x in family:
            mask &= x
        out.append(mask)
    return out


def absolute_signature(
        fw: ArgumentationFramework, semantics: Semantics,
        max_args: int | None = None) -> dict[str, JustificationSignature]:
    """Per-argument sets of (l, m, n) triples at which the argument is
    sceptically justified under the given semantics; an empty extension
    family justifies everything (empty intersection)."""
    if semantics not in (Semantics.GROUNDED, Semantics.PREFERRED,
                         Semantics.STABLE):
        raise ValueError(
            "absolute rankings are defined for grounded, preferred, stable")
    _check_cap(len(fw), max_args)
    k = saturation_bound(fw)
    grades: dict[str, set[tuple[int, int, int]]] = {
        lab: set() for lab in fw.labels}
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            per_l = _sceptical_per_l(fw, semantics, m, n, k)
            for l, mask in enumerate(per_l, start=1):
                for arg in ArgumentSet(fw, mask):
                    grades[arg.label].add((l, m, n))
    kind = f"absolute:{semantics.value}"
    return {lab: JustificationSignature(lab, frozenset(g), k, kind)
            for lab, g in grades.items()}


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

    The two orders are computed through unrelated code paths (orbit
    unions over (m, n) pairs versus per-l justification sweeps over
    triples), but they must coincide: grade points without a grounded
    extension justify every argument alike, so only fixpoint
    memberships can separate two arguments, and those memberships are
    exactly what the contextual sweep records. Restricting either side
    to part of the grade space breaks the match, because a membership
    difference can live at a single (m, n) point.
    """
    contextual = contextual_rank(fw)
    grounded = absolute_rank(fw, Semantics.GROUNDED, max_args=max_args)
    for a in fw.labels:
        for b in fw.labels:
            if contextual.at_least(a, b) != grounded.at_least(a, b):
                return False, (a, b)
    return True, None
