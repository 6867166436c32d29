"""Executable checks for properties of the graded argument rankings.

Each checker scans a framework for pairs that trigger a postulate's
premise, verifies the required relation with absolute_rank, and
returns a verdict. Violated verdicts carry the offending pair and the
relation actually observed so the claim can be re-verified from the
witness alone. check_named_counterexamples runs the whole battery on
fixed graphs with known outcomes; corpus_checks sweeps random graphs
for the properties that are expected to hold universally.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from . import fixtures
from .framework import (ArgumentationFramework, connected_components,
                        disjoint_union, random_framework, relabel)
from .kernel import unattacked_closure
from .ranking import (ArgumentPartialOrder, JustificationSignature,
                      Relation, absolute_rank, absolute_signature)
from .semantics import Semantics

RANKED_SEMANTICS = (Semantics.GROUNDED, Semantics.PREFERRED, Semantics.STABLE)


class CheckResult(Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"


@dataclass(frozen=True)
class PostulateWitness:
    framework: ArgumentationFramework
    semantics: Semantics
    pair: tuple[str, str]
    relation: Relation
    detail: str


@dataclass(frozen=True)
class PostulateVerdict:
    postulate: str
    semantics: tuple[Semantics, ...]
    result: CheckResult
    witness: PostulateWitness | None = None

    def __str__(self) -> str:
        sems = ", ".join(s.value for s in self.semantics)
        text = f"{self.postulate} [{sems}]: {self.result.value}"
        if self.witness is not None:
            text += f" ({self.witness.detail})"
        return text


def _holds(name: str, semantics: Sequence[Semantics]) -> PostulateVerdict:
    return PostulateVerdict(name, tuple(semantics), CheckResult.HOLDS)


def _violated(name: str, semantics: Semantics,
              framework: ArgumentationFramework, pair: tuple[str, str],
              relation: Relation, detail: str) -> PostulateVerdict:
    witness = PostulateWitness(framework, semantics, pair, relation, detail)
    return PostulateVerdict(name, (semantics,), CheckResult.VIOLATED, witness)


def _pairs(labels: Sequence[str]) -> Iterable[tuple[str, str]]:
    for x in labels:
        for y in labels:
            if x != y:
                yield x, y


def check_abstraction(framework: ArgumentationFramework,
                      permutation: Mapping[str, str] | None = None,
                      semantics: Sequence[Semantics] = RANKED_SEMANTICS,
                      ) -> PostulateVerdict:
    """Renaming arguments must not change any pairwise relation."""
    labels = framework.labels
    if permutation is None:
        permutation = {labels[i]: labels[(i + 1) % len(labels)]
                       for i in range(len(labels))}
    renamed = relabel(framework, dict(permutation))
    for sem in semantics:
        original = absolute_rank(framework, sem)
        mapped = absolute_rank(renamed, sem)
        for x, y in _pairs(labels):
            before = original.compare(x, y)
            after = mapped.compare(permutation[x], permutation[y])
            if before is not after:
                return _violated(
                    "abstraction", sem, framework, (x, y), after,
                    f"{x} vs {y} is {before.name} but the renamed pair "
                    f"is {after.name} under {sem.value}")
    return _holds("abstraction", semantics)


def _constrained(signatures: dict[str, JustificationSignature],
                 ) -> dict[str, frozenset[tuple[int, ...]]]:
    # keep triples (l, m, n) with l >= m and n >= m
    return {label: frozenset(g for g in sig.grades
                             if g[0] >= g[1] and g[2] >= g[1])
            for label, sig in signatures.items()}


def check_independence(framework: ArgumentationFramework,
                       strict: bool = False,
                       semantics: Sequence[Semantics] = RANKED_SEMANTICS,
                       ) -> PostulateVerdict:
    """A relation established inside a connected component must survive
    in the whole framework. Compared over the triples where the
    semantics is guaranteed to exist."""
    name = "strict independence" if strict else "independence"
    components = connected_components(framework)
    for sem in semantics:
        signatures = absolute_signature(framework, sem)
        whole = _constrained(signatures)
        for component in components:
            part = _constrained(absolute_signature(component, sem))
            for x, y in _pairs(component.labels):
                part_at_least = part[y] <= part[x]
                if strict:
                    premise = part_at_least and not (part[x] <= part[y])
                    satisfied = (whole[y] <= whole[x]
                                 and not (whole[x] <= whole[y]))
                else:
                    premise = part_at_least
                    satisfied = whole[y] <= whole[x]
                if premise and not satisfied:
                    form = "strictly above" if strict else "at least"
                    observed = ArgumentPartialOrder(
                        framework, signatures,
                        f"absolute:{sem.value}").compare(x, y)
                    return _violated(
                        name, sem, framework, (x, y), observed,
                        f"{x} is {form} {y} in its component but not in "
                        f"the whole framework under {sem.value}")
    return _holds(name, semantics)


def check_strict_independence(framework: ArgumentationFramework,
                              semantics: Sequence[Semantics] = RANKED_SEMANTICS,
                              ) -> PostulateVerdict:
    return check_independence(framework, strict=True, semantics=semantics)


def check_void_precedence(framework: ArgumentationFramework,
                          semantics: Semantics | None = None,
                          ) -> PostulateVerdict:
    """Unattacked arguments must rank strictly above attacked ones.
    Default checks grounded and preferred; pass Semantics.STABLE for
    the separate stable report."""
    sems = ((Semantics.GROUNDED, Semantics.PREFERRED)
            if semantics is None else (semantics,))
    core = unattacked_closure(framework)
    unattacked, attacked = core.labels, core.complement().labels
    for sem in sems:
        order = absolute_rank(framework, sem)
        for x in unattacked:
            for y in attacked:
                if not order.strictly_above(x, y):
                    return _violated(
                        "void precedence", sem, framework, (x, y),
                        order.compare(x, y),
                        f"unattacked {x} is not strictly above {y} "
                        f"under {sem.value}")
    return _holds("void precedence", sems)


def check_unattacked_equivalence(framework: ArgumentationFramework,
                                 semantics: Sequence[Semantics] = RANKED_SEMANTICS,
                                 ) -> PostulateVerdict:
    """All unattacked arguments share one equivalence class."""
    unattacked = unattacked_closure(framework).labels
    for sem in semantics:
        order = absolute_rank(framework, sem)
        for x, y in _pairs(unattacked):
            rel = order.compare(x, y)
            if rel is not Relation.EQUIVALENT:
                return _violated(
                    "unattacked equivalence", sem, framework, (x, y), rel,
                    f"unattacked {x} and {y} are {rel.name} "
                    f"under {sem.value}")
    return _holds("unattacked equivalence", semantics)


def check_self_contradiction(framework: ArgumentationFramework,
                             semantics: Semantics = Semantics.PREFERRED,
                             ) -> PostulateVerdict:
    """Every non-self-attacker must rank strictly above every
    self-attacker."""
    selfers = [lab for i, lab in enumerate(framework.labels)
               if framework.attacker_mask(i) >> i & 1]
    others = [lab for lab in framework.labels if lab not in selfers]
    order = absolute_rank(framework, semantics)
    for s in selfers:
        for y in others:
            if not order.strictly_above(y, s):
                return _violated(
                    "self contradiction", semantics, framework, (s, y),
                    order.compare(s, y),
                    f"{y} is not strictly above the self-attacker {s}")
    return _holds("self contradiction", (semantics,))


def check_cardinality_precedence(framework: ArgumentationFramework,
                                 semantics: Semantics = Semantics.GROUNDED,
                                 ) -> PostulateVerdict:
    """Fewer attackers must mean a strictly better rank."""
    order = absolute_rank(framework, semantics)
    for x, y in _pairs(framework.labels):
        if framework.in_degree(x) < framework.in_degree(y):
            if not order.strictly_above(x, y):
                return _violated(
                    "cardinality precedence", semantics, framework, (x, y),
                    order.compare(x, y),
                    f"{x} has fewer attackers than {y} but is not "
                    f"strictly above it")
    return _holds("cardinality precedence", (semantics,))


def check_quality_precedence(framework: ArgumentationFramework,
                             semantics: Semantics = Semantics.PREFERRED,
                             ) -> PostulateVerdict:
    """If some attacker of y is strictly above every attacker of x,
    then x must be strictly above y."""
    order = absolute_rank(framework, semantics)
    attackers = {lab: sorted(a.label for a in framework.attackers_of(lab))
                 for lab in framework.labels}
    for x, y in _pairs(framework.labels):
        premise = any(all(order.strictly_above(q, p) for p in attackers[x])
                      for q in attackers[y])
        if premise and not order.strictly_above(x, y):
            return _violated(
                "quality precedence", semantics, framework, (x, y),
                order.compare(x, y),
                f"an attacker of {y} beats every attacker of {x}, "
                f"yet {x} is not strictly above {y}")
    return _holds("quality precedence", (semantics,))


def check_defense_precedence(framework: ArgumentationFramework,
                             semantics: Semantics = Semantics.GROUNDED,
                             ) -> PostulateVerdict:
    """Equal attack counts: a defended argument must beat an
    undefended one."""
    order = absolute_rank(framework, semantics)
    for x, y in _pairs(framework.labels):
        if (framework.in_degree(x) == framework.in_degree(y) >= 1
                and framework.defenders_of(x)
                and not framework.defenders_of(y)):
            if not order.strictly_above(x, y):
                return _violated(
                    "defense precedence", semantics, framework, (x, y),
                    order.compare(x, y),
                    f"{x} is defended and {y} is not, with equal attack "
                    f"counts, yet {x} is not strictly above {y}")
    return _holds("defense precedence", (semantics,))


def check_counter_transitivity(framework: ArgumentationFramework,
                               semantics: Semantics = Semantics.GROUNDED,
                               strict: bool = True) -> PostulateVerdict:
    """If y's attackers pairwise dominate x's attackers (injectively),
    x must be at least as good as y; strictly, in the strict form, when
    the domination is strict in count or in some matched pair."""
    name = "strict counter-transitivity" if strict else "counter-transitivity"
    order = absolute_rank(framework, semantics)
    attackers = {lab: sorted(a.label for a in framework.attackers_of(lab))
                 for lab in framework.labels}
    for x, y in _pairs(framework.labels):
        ax, ay = attackers[x], attackers[y]
        if len(ay) < len(ax):
            continue
        premise = False
        for image in permutations(ay, len(ax)):
            if not all(order.at_least(q, p) for p, q in zip(ax, image)):
                continue
            if not strict:
                premise = True
                break
            if (len(ay) > len(ax)
                    or any(order.strictly_above(q, p)
                           for p, q in zip(ax, image))):
                premise = True
                break
        satisfied = (order.strictly_above(x, y) if strict
                     else order.at_least(x, y))
        if premise and not satisfied:
            return _violated(
                name, semantics, framework, (x, y), order.compare(x, y),
                f"attackers of {y} dominate those of {x}, yet {x} is "
                f"not ranked accordingly")
    return _holds(name, (semantics,))


def _fresh_prefix(taken: Iterable[str]) -> str:
    prefix = "w"
    labels = list(taken)
    while any(lab.startswith(prefix) for lab in labels):
        prefix += "w"
    return prefix


def _with_path(framework: ArgumentationFramework, target: str,
               length: int) -> ArgumentationFramework:
    prefix = _fresh_prefix(framework.labels)
    chain = [f"{prefix}{i}" for i in range(1, length + 1)]
    attacks = list(framework.attacks) + [(chain[0], target)]
    attacks += [(chain[i + 1], chain[i]) for i in range(length - 1)]
    return ArgumentationFramework(list(framework.labels) + chain, attacks)


def _side_by_side(base: ArgumentationFramework,
                  variant: ArgumentationFramework) -> ArgumentationFramework:
    suffixed = relabel(variant, {lab: lab + "_b" for lab in variant.labels})
    return disjoint_union(base, suffixed)


def check_attack_path_addition(framework: ArgumentationFramework,
                               target: str, length: int = 1,
                               semantics: Semantics = Semantics.STABLE,
                               ) -> PostulateVerdict:
    """Grafting a fresh attack path of odd length onto an argument
    should strictly degrade it (even length: strictly improve it). The
    original and modified copies are ranked inside one disjoint union."""
    name = ("attack path addition" if length % 2 else
            "defense path addition")
    combined = _side_by_side(framework, _with_path(framework, target, length))
    order = absolute_rank(combined, semantics)
    changed = target + "_b"
    better, worse = ((target, changed) if length % 2 else (changed, target))
    if order.strictly_above(better, worse):
        return _holds(name, (semantics,))
    return _violated(
        name, semantics, combined, (target, changed),
        order.compare(target, changed),
        f"adding a length-{length} path to {target} does not strictly "
        f"{'degrade' if length % 2 else 'improve'} it under {semantics.value}")


def _path_increase(length: int, semantics: Semantics,
                   name: str) -> PostulateVerdict:
    short = fixtures.attack_chain(length)
    long = fixtures.attack_chain(length + 2)
    combined = _side_by_side(short, long)
    order = absolute_rank(combined, semantics)
    # odd = attack path: lengthening should help; even = defense path:
    # lengthening should hurt
    better, worse = (("y_b", "y") if length % 2 else ("y", "y_b"))
    if order.strictly_above(better, worse):
        return _holds(name, (semantics,))
    return _violated(
        name, semantics, combined, ("y", "y_b"), order.compare("y", "y_b"),
        f"growing the path from {length} to {length + 2} leaves the "
        f"targets {order.compare('y', 'y_b').name} under {semantics.value}")


def check_attack_path_increase(length: int = 1,
                               semantics: Semantics = Semantics.GROUNDED,
                               ) -> PostulateVerdict:
    if length % 2 == 0:
        raise ValueError("attack paths have odd length")
    return _path_increase(length, semantics, "attack path increase")


def check_defense_path_increase(length: int = 2,
                                semantics: Semantics = Semantics.GROUNDED,
                                ) -> PostulateVerdict:
    if length % 2 == 1:
        raise ValueError("defense paths have even length")
    return _path_increase(length, semantics, "defense path increase")


def check_named_counterexamples() -> tuple[PostulateVerdict, ...]:
    """The fixed battery: each postulate on a graph with a known
    outcome. Pair with EXPECTED_BATTERY to validate the whole table."""
    cp_graph = disjoint_union(fixtures.defended_two_on_one(),
                              fixtures.three_on_one_mixed_defense())
    addition_base = disjoint_union(fixtures.three_cycle(),
                                   fixtures.isolated_node("x"))
    return (
        check_abstraction(fixtures.three_cycle()),
        check_independence(fixtures.self_loop_and_edge()),
        check_strict_independence(fixtures.self_loop_and_edge()),
        check_void_precedence(fixtures.single_chain()),
        check_void_precedence(fixtures.self_loop_and_edge(),
                              Semantics.STABLE),
        check_self_contradiction(fixtures.self_contradiction()),
        check_cardinality_precedence(cp_graph),
        check_quality_precedence(fixtures.quality_precedence()),
        check_defense_precedence(fixtures.depth_chain_and_root_attack()),
        check_counter_transitivity(fixtures.depth_chain_and_root_attack()),
        check_attack_path_addition(addition_base, "x"),
        check_attack_path_increase(),
        check_defense_path_increase(),
    )


EXPECTED_BATTERY: tuple[tuple[str, tuple[Semantics, ...], CheckResult], ...] = (
    ("abstraction", RANKED_SEMANTICS, CheckResult.HOLDS),
    ("independence", RANKED_SEMANTICS, CheckResult.HOLDS),
    ("strict independence", (Semantics.STABLE,), CheckResult.VIOLATED),
    ("void precedence", (Semantics.GROUNDED, Semantics.PREFERRED),
     CheckResult.HOLDS),
    ("void precedence", (Semantics.STABLE,), CheckResult.VIOLATED),
    ("self contradiction", (Semantics.PREFERRED,), CheckResult.VIOLATED),
    ("cardinality precedence", (Semantics.GROUNDED,), CheckResult.VIOLATED),
    ("quality precedence", (Semantics.PREFERRED,), CheckResult.VIOLATED),
    ("defense precedence", (Semantics.GROUNDED,), CheckResult.VIOLATED),
    ("strict counter-transitivity", (Semantics.GROUNDED,),
     CheckResult.VIOLATED),
    ("attack path addition", (Semantics.STABLE,), CheckResult.VIOLATED),
    ("attack path increase", (Semantics.GROUNDED,), CheckResult.VIOLATED),
    ("defense path increase", (Semantics.GROUNDED,), CheckResult.VIOLATED),
)


def named_counterexamples_match() -> tuple[bool, tuple[PostulateVerdict, ...]]:
    verdicts = check_named_counterexamples()
    ok = len(verdicts) == len(EXPECTED_BATTERY) and all(
        v.postulate == name and v.semantics == sems and v.result is result
        for v, (name, sems, result) in zip(verdicts, EXPECTED_BATTERY))
    return ok, verdicts


def corpus_checks(count: int = 30, seed: int = 0,
                  sizes: tuple[int, int] = (3, 6),
                  edge_prob: float = 0.25,
                  semantics: Sequence[Semantics] = RANKED_SEMANTICS,
                  ) -> tuple[PostulateVerdict, ...]:
    """Aggregate over a seeded random corpus the properties that must
    hold on every framework. One verdict per property; the first
    violating framework, if any, becomes the witness."""
    lo, hi = sizes
    found: dict[str, PostulateVerdict] = {}

    def record(verdict: PostulateVerdict) -> None:
        key = verdict.postulate + "/" + ",".join(
            s.value for s in verdict.semantics)
        current = found.get(key)
        if current is None or (current.result is CheckResult.HOLDS
                               and verdict.result is CheckResult.VIOLATED):
            found[key] = verdict

    for i in range(count):
        size = lo + i % (hi - lo + 1)
        fw = random_framework(size, edge_prob, seed + i)
        rng = random.Random((seed + i) * 7919)
        shuffled = list(fw.labels)
        rng.shuffle(shuffled)
        permutation = dict(zip(fw.labels, shuffled))
        record(check_abstraction(fw, permutation, semantics))
        record(check_independence(fw, semantics=semantics))
        record(check_void_precedence(fw))
        record(check_unattacked_equivalence(fw, semantics))
    return tuple(found.values())
