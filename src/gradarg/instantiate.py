"""From stratified propositional bases to defeat graphs.

A knowledge base is a sequence of strata B1..Bk, B1 strongest.
Arguments are minimal consistent premise sets with their claims;
attacks hit premise occurrences whose negation the attacker claims,
and an attack defeats unless the attacker is strictly less preferred
than the attacked premise. Preferred subtheories are computed
independently, stratum by stratum, so the correspondence with stable
extensions of the defeat graph can be checked rather than assumed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import FormulaParseError, KnowledgeBaseError
from .framework import ArgumentationFramework, ArgumentSet, _maximal
from .kernel import GradeParams
from .logic import (Formula, complement, format_formula, parse_formula,
                    strip_double_negation, truth_tables)
from .semantics import (JustificationMode, Semantics, _check_cap,
                        enumerate_extensions)


@dataclass(frozen=True)
class KnowledgeBase:
    """Stratified base; stratum 1 is the most preferred.

    The base is compiled once, on construction: ``tables`` holds each
    formula's truth table, in ``formulas`` order, and the table of all
    rows, over the sorted atoms of the base. ``logic.truth_tables``
    compiles them and refuses a base past its atom bound."""

    strata: tuple[tuple[Formula, ...], ...]
    tables: tuple[tuple[int, ...], int] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        if not self.strata:
            raise KnowledgeBaseError("empty knowledge base")
        seen: set[Formula] = set()
        for level, stratum in enumerate(self.strata, start=1):
            if not stratum:
                raise KnowledgeBaseError(f"stratum {level} is empty")
            for f in stratum:
                if f in seen:
                    raise KnowledgeBaseError(
                        f"duplicate formula {format_formula(f)!r}")
                seen.add(f)
        object.__setattr__(self, "tables", truth_tables(self.formulas))

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(f for stratum in self.strata for f in stratum)


_KB_LINE = re.compile(r"(\d+)\s*:\s*(\S.*)")


def parse_kb(text: str) -> KnowledgeBase:
    """Lines `k: <formula>`; k is a positive stratum index, 1 strongest.
    Duplicate formulas are rejected wherever they appear."""
    by_level: dict[int, list[Formula]] = {}
    seen: dict[Formula, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        match = _KB_LINE.fullmatch(line)
        if not match:
            raise KnowledgeBaseError(
                "expected 'k: formula' with a positive stratum index", lineno)
        level = int(match.group(1))
        if level < 1:
            raise KnowledgeBaseError("stratum index must be >= 1", lineno)
        try:
            formula = parse_formula(match.group(2))
        except FormulaParseError as exc:
            raise KnowledgeBaseError(str(exc), lineno) from exc
        first = seen.setdefault(formula, lineno)
        if first != lineno:
            raise KnowledgeBaseError(
                f"formula already given on line {first}", lineno)
        by_level.setdefault(level, []).append(formula)
    return KnowledgeBase(tuple(
        tuple(by_level[k]) for k in sorted(by_level)))


def _texts(formulas: Iterable[Formula]) -> list[str]:
    """A formula set's canonical text: its formulas rendered and sorted.
    It is also the order premise sets are listed in."""
    return sorted(map(format_formula, formulas))


def _braced(texts: Iterable[str]) -> str:
    """Member texts as one set: ``{a, b}``, as ``ArgumentSet`` prints."""
    return "{" + ", ".join(texts) + "}"


def _conjoin(tables: Sequence[int], mask: int, rows: int) -> int:
    """The table of the formulas whose bits are set in mask, within
    rows."""
    while mask:
        low = mask & -mask
        rows &= tables[low.bit_length() - 1]
        mask ^= low
    return rows


def _members(formulas: Sequence[Formula], mask: int) -> frozenset[Formula]:
    return frozenset(f for i, f in enumerate(formulas) if mask >> i & 1)


def _maximal_consistent(tables: Sequence[int], prefix: int) -> list[int]:
    """The maximal masks of a stratum's tables consistent with the
    prefix's table."""
    return _maximal(range(1 << len(tables)),
                    lambda mask: _conjoin(tables, mask, prefix) != 0)


def preferred_subtheories(kb: KnowledgeBase) -> tuple[frozenset[Formula], ...]:
    """All bases obtainable by greedily taking a maximal consistent
    subset of each stratum in preference order."""
    base = kb.formulas
    tables, rows = kb.tables
    prefixes = [(0, rows)]  # premise mask over the base, and its table
    offset = 0
    for stratum in kb.strata:
        level = tables[offset:offset + len(stratum)]
        prefixes = [(mask | chosen << offset, _conjoin(level, chosen, prefix))
                    for mask, prefix in prefixes
                    for chosen in _maximal_consistent(level, prefix)]
        offset += len(stratum)
    return tuple(_members(base, mask)
                 for mask in sorted(mask for mask, _ in prefixes))


@dataclass(frozen=True)
class ClassicalArgument:
    premises: frozenset[Formula]
    claim: Formula

    def __str__(self) -> str:
        return (f"({_braced(_texts(self.premises))}, "
                f"{format_formula(self.claim)})")


def _minimal_entailing(tables: Sequence[int], rows: int,
                       refuted: Sequence[int]) -> list[list[int]]:
    """For each goal, given by the table of its negation, the
    subset-minimal masks of tables whose conjunction is consistent and
    entails it. Each subset's table is formed once and tested against
    every goal; none is kept, so memory stays linear in the kept sets."""
    kept: list[list[int]] = [[] for _ in refuted]
    # ascending popcount: any superset of a kept set is non-minimal
    for mask in sorted(range(1 << len(tables)),
                       key=lambda v: (v.bit_count(), v)):
        table = _conjoin(tables, mask, rows)
        if not table:
            continue
        for masks, negation in zip(kept, refuted):
            if table & negation == 0 and not any(
                    prev & mask == prev for prev in masks):
                masks.append(mask)
    return kept


def generate_arguments(kb: KnowledgeBase,
                       max_args: int | None = None) -> tuple[ClassicalArgument, ...]:
    """Premise arguments plus every minimal consistent entailer of the
    negation of a base formula. Order: premise bitmask, then claim text."""
    base = kb.formulas
    tables, rows = kb.tables
    found = {(1 << i, beta)
             for i, (beta, table) in enumerate(zip(base, tables)) if table}
    # a complement's negation has the table of the formula it negates
    claims = {complement(beta): table for beta, table in zip(base, tables)}
    for claim, masks in zip(claims, _minimal_entailing(
            tables, rows, list(claims.values()))):
        found.update((mask, claim) for mask in masks)
    _check_cap(len(found), max_args, "generated arguments", "the limit")
    return tuple(ClassicalArgument(_members(base, mask), claim)
                 for mask, claim in sorted(
                     found, key=lambda arg: (arg[0], format_formula(arg[1]))))


@dataclass(frozen=True)
class DefeatGraph:
    framework: ArgumentationFramework
    arguments: tuple[ClassicalArgument, ...]
    attack_pairs: frozenset[tuple[str, str]]

    def argument_of(self, label: str) -> ClassicalArgument:
        return self.arguments[self.framework.index_of(label)]


def build_defeat_graph(kb: KnowledgeBase,
                       max_args: int | None = None) -> DefeatGraph:
    """Attacks hit a premise occurrence whose complement the attacker
    claims; the attack defeats unless some attacker premise sits
    strictly below that occurrence's stratum.

    A claim is complementary to a premise exactly when its
    double-negation-normalised form is the premise's complement, so
    each premise occurrence is indexed once under its complement, with
    its stratum, and each attacker looks up the occurrences it hits."""
    args = generate_arguments(kb, max_args)
    labels = [f"A{i + 1}" for i in range(len(args))]
    stratum = {f: level for level, fs in enumerate(kb.strata, start=1)
               for f in fs}
    hit: dict[Formula, list[tuple[str, int]]] = {}
    for label, target in zip(labels, args):
        for beta in target.premises:
            hit.setdefault(complement(beta), []).append(
                (label, stratum[beta]))
    attacks: set[tuple[str, str]] = set()
    defeats: set[tuple[str, str]] = set()
    for label, attacker in zip(labels, args):
        worst = max((stratum[g] for g in attacker.premises), default=0)
        for target, level in hit.get(
                strip_double_negation(attacker.claim), ()):
            attacks.add((label, target))
            if worst <= level:
                defeats.add((label, target))
    framework = ArgumentationFramework(labels, sorted(defeats))
    return DefeatGraph(framework, args, frozenset(attacks))


@dataclass(frozen=True)
class CorrespondenceReport:
    matches: bool
    subtheory_premise_sets: tuple[frozenset[Formula], ...]
    stable_premise_sets: tuple[frozenset[Formula], ...]
    stable_equals_preferred: bool
    detail: str


def _premise_sets(graph: DefeatGraph,
                  extensions: tuple[ArgumentSet, ...]) -> set[frozenset[Formula]]:
    out: set[frozenset[Formula]] = set()
    for ext in extensions:
        combined: frozenset[Formula] = frozenset()
        for arg_id in ext:
            combined |= graph.arguments[arg_id.index].premises
        out.add(combined)
    return out


def ps_correspondence_check(kb: KnowledgeBase,
                            max_args: int | None = None) -> CorrespondenceReport:
    """Premise sets of the (1,1,1)-stable extensions of the defeat graph
    must be exactly the preferred subtheories, and on these graphs the
    stable and preferred families must coincide."""
    graph = build_defeat_graph(kb, max_args)
    params = GradeParams(1, 1, 1)
    stable = enumerate_extensions(graph.framework, Semantics.STABLE, params,
                                  max_args=max_args)
    preferred = enumerate_extensions(graph.framework, Semantics.PREFERRED,
                                     params, max_args=max_args)
    stable_sets = _premise_sets(graph, stable.extensions)
    subtheories = set(preferred_subtheories(kb))
    same_family = set(stable.extensions) == set(preferred.extensions)
    sets_match = stable_sets == subtheories
    if sets_match and same_family:
        detail = "premise sets of stable extensions match the subtheories"
    elif not sets_match:
        detail = "; ".join(
            f"{title}: " + "; ".join(
                sorted(_braced(_texts(s)) for s in sets))
            for title, sets in (
                ("extra stable premise sets", stable_sets - subtheories),
                ("unmatched subtheories", subtheories - stable_sets))
            if sets)
    else:
        detail = "stable and preferred families differ on the defeat graph"
    return CorrespondenceReport(
        matches=sets_match and same_family,
        subtheory_premise_sets=tuple(sorted(subtheories, key=_texts)),
        stable_premise_sets=tuple(sorted(stable_sets, key=_texts)),
        stable_equals_preferred=same_family,
        detail=detail)


@dataclass(frozen=True)
class InferenceReport:
    holds: bool
    mode: JustificationMode
    params: GradeParams
    goal: Formula
    premise_sets: tuple[frozenset[Formula], ...]


def graded_inference(kb: KnowledgeBase, params: GradeParams, goal: Formula,
                     mode: JustificationMode,
                     max_args: int | None = None) -> InferenceReport:
    """Whether every (sceptical) or some (credulous) premise set of an
    lmn-preferred extension of the defeat graph entails the goal."""
    # compiled first so that a goal widening the atoms past the bound
    # fails before any argument is generated
    (*tables, goal_table), rows = truth_tables(kb.formulas + (goal,))
    refuted = rows ^ goal_table
    index = {f: i for i, f in enumerate(kb.formulas)}
    graph = build_defeat_graph(kb, max_args)
    family = enumerate_extensions(graph.framework, Semantics.PREFERRED,
                                  params, max_args=max_args)
    sets = sorted(_premise_sets(graph, family.extensions), key=_texts)
    answers = [_conjoin(tables, sum(1 << index[f] for f in s), rows)
               & refuted == 0 for s in sets]
    holds = (all(answers) if mode is JustificationMode.SCEPTICAL
             else any(answers))
    return InferenceReport(holds=holds, mode=mode, params=params, goal=goal,
                           premise_sets=tuple(sets))
