"""Argument rankings from graded justification sweeps.

An argument's contextual signature collects the defense grades (m, n)
at which it enters the iterated defense of a fixed context set; its
absolute signature collects the triples (l, m, n) at which it is
sceptically justified under a chosen graded semantics. Ranking is
signature inclusion: an argument sits at least as high as another when
it is justified everywhere the other is. Sweeps run over the saturated
window [1, K] per coordinate, beyond which no operator changes.

A signature is held as one int over that grid: bit
((l-1)*K + (m-1))*K + (n-1) stands for the triple (l, m, n) and bit
(m-1)*K + (n-1) for the pair (m, n), so ascending bits run through the
grade points in sorted order. Inclusion is then ``b & ~a == 0``, and
arguments with equal signatures share one int. Sweeps find one mask of
arguments per grade point and transpose the masks once.

The absolute sweep owns no extension rule: it reads every family from
``semantics._families``, the rule ``enumerate_extensions`` reads one
grade of, and only intersects each one into its grade point's mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import product
from operator import and_
from typing import Iterator

from .framework import ArgumentationFramework, ArgumentSet, _mask
from .kernel import (defense_mask, defense_orbit, least_fixpoints,
                     saturation_bound)
from .semantics import Semantics, _check_cap, _families

RANKED_SEMANTICS = (Semantics.GROUNDED, Semantics.PREFERRED, Semantics.STABLE)


class Relation(Enum):
    ABOVE = "above"
    BELOW = "below"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def _grid(bound: int, arity: int) -> Iterator[tuple[int, ...]]:
    """The grade points of [1, bound]^arity in bit order."""
    return product(range(1, bound + 1), repeat=arity)


@dataclass(frozen=True)
class JustificationSignature:
    """The grade points at which one argument is justified, as bits over
    the [1, bound] grid of pairs (contextual) or triples (absolute)."""

    argument: str
    bits: int
    bound: int
    kind: str

    @property
    def grades(self) -> frozenset[tuple[int, ...]]:
        """The grade points themselves, decoded from the bits."""
        grid = _grid(self.bound, 2 if self.kind == "contextual" else 3)
        return frozenset(p for i, p in enumerate(grid) if self.bits >> i & 1)


class ArgumentPartialOrder:
    """Signature-inclusion order over a framework's arguments."""

    def __init__(self, framework: ArgumentationFramework,
                 signatures: dict[str, JustificationSignature],
                 kind: str) -> None:
        self.framework = framework
        self.signatures = signatures
        self.kind = kind
        self._classes: tuple[tuple[str, ...], ...] | None = None

    def at_least(self, a: str, b: str) -> bool:
        """a ranks at least as high as b: b's grades are a subset of a's."""
        return self.signatures[b].bits & ~self.signatures[a].bits == 0

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

    def _existence_safe(self) -> ArgumentPartialOrder:
        """This absolute order cut to the triples (l, m, n) with l >= m
        and n >= m, where ``GradeParams.existence_safe`` holds: for each
        (l, m) with l >= m, the run of bits n = m..K."""
        k = max((s.bound for s in self.signatures.values()), default=1)
        keep = sum(
            ((1 << (k - m + 1)) - 1) << (((l - 1) * k + m - 1) * k + m - 1)
            for l in range(1, k + 1) for m in range(1, l + 1))
        return ArgumentPartialOrder(self.framework, {
            lab: JustificationSignature(lab, s.bits & keep, s.bound, s.kind)
            for lab, s in self.signatures.items()}, self.kind)

    def equivalence_classes(self) -> tuple[tuple[str, ...], ...]:
        """Classes of arguments with identical signatures, largest
        signature first, ties broken by first label. Computed once per
        order and kept with it."""
        if self._classes is None:
            by_sig: dict[int, list[str]] = {}
            for label, sig in self.signatures.items():
                by_sig.setdefault(sig.bits, []).append(label)
            self._classes = tuple(sorted(
                (tuple(sorted(members)) for members in by_sig.values()),
                key=lambda c: (-self.signatures[c[0]].bits.bit_count(), c)))
        return self._classes

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Cover edges between equivalence-class indices, higher to lower.

        Row i holds bit j when class j lies strictly below class i; a
        strict subset has fewer bits, so only later classes qualify. The
        covers of i are its row minus everything below a class in it,
        and rows are built bottom-up so those are ready in time."""
        sigs = [self.signatures[c[0]].bits for c in self.equivalence_classes()]
        below, covers = [0] * len(sigs), [0] * len(sigs)
        for i in reversed(range(len(sigs))):
            row = deep = 0
            for j in range(i + 1, len(sigs)):
                if sigs[j] & ~sigs[i] == 0:
                    row |= 1 << j
                    deep |= below[j]
            below[i], covers[i] = row, row & ~deep
        return tuple((i, j) for i, row in enumerate(covers)
                     for j in range(i + 1, len(sigs)) if row >> j & 1)

    def to_dot(self) -> str:
        lines = ["digraph ranking {", "  rankdir=TB;", "  node [shape=box];"]
        for i, members in enumerate(self.equivalence_classes()):
            # a DOT label ends at an unescaped quote and reads a
            # backslash as the start of an escape, so both are escaped
            text = ", ".join(members).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  c{i} [label="{text}"];')
        for i, j in self.hasse_edges():
            lines.append(f"  c{i} -> c{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- signature bookkeeping -----------------------------------------------


def _signatures(fw: ArgumentationFramework, masks: list[int], bound: int,
                kind: str) -> dict[str, JustificationSignature]:
    """Transpose per-point member masks, masks[p] holding the arguments
    justified at grade point p, into one signature int per argument.

    The masks are written as one binary string, highest point first and
    within each point highest argument first, so argument i's digit of
    every point sits ``width - 1 - i`` places into its point's block.
    Every width-th digit from there reads, highest point first, as the
    argument's signature in binary."""
    width = len(fw)
    text = "".join(f"{mask:0{width}b}" for mask in reversed(masks))
    return {lab: JustificationSignature(
                lab, int(text[width - 1 - i::width], 2), bound, kind)
            for i, lab in enumerate(fw.labels)}


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
    start = 0 if x is None else _mask(fw, x)
    k = saturation_bound(fw)
    masks = [0] * (k * k)
    for n in range(1, k + 1):
        m0 = 1
        while start and start & ~defense_mask(fw, m0, n, start):
            union = 0
            for stage in defense_orbit(fw, m0, n, start):
                union |= stage
            masks[(m0 - 1) * k + n - 1] = union
            m0 += 1
        masks[(m0 - 1) * k + n - 1::k] = least_fixpoints(
            fw, n, range(m0, k + 1), start)
    return _signatures(fw, masks, k, "contextual")


def contextual_rank(fw: ArgumentationFramework,
                    x: ArgumentSet | None = None) -> ArgumentPartialOrder:
    return ArgumentPartialOrder(fw, contextual_signature(fw, x), "contextual")


# -- absolute (sceptical-justification) signatures -----------------------


def absolute_signature(
        fw: ArgumentationFramework, semantics: Semantics,
        max_args: int | None = None) -> dict[str, JustificationSignature]:
    """Per-argument sets of (l, m, n) triples at which the argument is
    sceptically justified under the given semantics; an empty extension
    family justifies everything (empty intersection).

    One ``least_fixpoints`` walk per column n gives the least defense
    fixpoint at every (m, n), and the column at m gives the least
    fixpoint at the swapped grade (n, m). From those two masks, the
    family at every l in [1, K] comes from ``semantics._families``, the
    same rule ``enumerate_extensions`` reads one l of, and each family's
    intersection goes straight into its grade-point mask.
    """
    if semantics not in RANKED_SEMANTICS:
        raise ValueError(
            "absolute rankings are defined for grounded, preferred, stable")
    _check_cap(len(fw), max_args)
    k = saturation_bound(fw)
    ms = range(1, k + 1)
    lfps = [least_fixpoints(fw, n, ms) for n in ms]
    masks = [0] * k ** 3
    for n in ms:
        for m in ms:
            families = _families(fw, semantics, m, n, ms, lfps[n - 1][m - 1],
                                 lfps[m - 1][n - 1])
            masks[(m - 1) * k + n - 1::k * k] = [
                reduce(and_, family, fw.full_mask) for family in families]
    return _signatures(fw, masks, k, f"absolute:{semantics.value}")


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
