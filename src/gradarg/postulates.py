"""Executable checks for properties of the graded argument rankings.

Every checker ends in one call to _first_failure: it ranks the
framework with absolute_rank under each semantics in turn, asks the
checker for that order's pair test, runs it on the checker's pairs in
order, and builds the verdict. Violated verdicts carry the first
failing pair and the relation that order gives it, so the claim can be
re-verified from the witness alone. A test may rank more: abstraction
ranks a renamed copy, and independence each connected component, and
both compare with the order of the framework itself.

check_named_counterexamples runs the whole battery on fixed graphs with
known outcomes; corpus_checks sweeps random graphs for the properties
that are expected to hold universally.

Checkers that run in sequence rank the same framework again: corpus_checks
ranks each of its frameworks eleven times, under each semantics once for
abstraction, independence and unattacked equivalence, and under two for
void precedence. So every ranking goes through _rank, which reads a
memo keyed on (framework, semantics) while one is open. corpus_checks
opens a fresh memo for its call, and named_counterexamples_match one
for the battery; each closes it when it returns, so nothing is kept
between calls. A checker called on its own opens none and ranks afresh.
"""
from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product
from typing import Callable, Iterator, Mapping, Sequence

from . import fixtures
from .framework import (ArgumentationFramework, connected_components,
                        disjoint_union, random_framework, relabel)
from .kernel import unattacked_closure
from .ranking import (RANKED_SEMANTICS, ArgumentPartialOrder, Relation,
                      absolute_rank)
from .semantics import Semantics


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


_Memo = dict[tuple[ArgumentationFramework, Semantics], ArgumentPartialOrder]
_MEMO: ContextVar[_Memo | None] = ContextVar("postulates_memo", default=None)


@contextmanager
def _memo() -> Iterator[None]:
    """A fresh ranking memo for the body of the with block."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _rank(fw: ArgumentationFramework, sem: Semantics) -> ArgumentPartialOrder:
    """absolute_rank(fw, sem), kept in the open memo if there is one.
    Equal frameworks share a key: they have the same labels in the same
    order and the same attacker rows, so they rank alike."""
    memo = _MEMO.get()
    if memo is None:
        return absolute_rank(fw, sem)
    order = memo.get((fw, sem))
    if order is None:
        order = memo[fw, sem] = absolute_rank(fw, sem)
    return order


def _pairs(labels: Sequence[str]) -> list[tuple[str, str]]:
    return [(x, y) for x in labels for y in labels if x != y]


_PairTest = Callable[[str, str], bool]


def _first_failure(name: str, framework: ArgumentationFramework,
                   semantics: Sequence[Semantics],
                   pairs: Sequence[tuple[str, str]],
                   required: Callable[[Semantics, ArgumentPartialOrder],
                                      _PairTest],
                   detail: str) -> PostulateVerdict:
    """Rank the framework under each semantics in turn, ask
    required(sem, order) for that order's pair test, and run the test on
    each pair in order. The first failing pair becomes the witness with
    the relation the ranked order gives it, so absolute_rank(framework,
    sem).compare(x, y) re-checks the claim; its detail is the template
    filled with x, y, sem and rel. Labels enter only as format
    arguments, never as template text, since they may contain braces."""
    for sem in semantics:
        order = _rank(framework, sem)
        test = required(sem, order)
        for x, y in pairs:
            if not test(x, y):
                rel = order.compare(x, y)
                witness = PostulateWitness(
                    framework, sem, (x, y), rel,
                    detail.format(x=x, y=y, sem=sem.value, rel=rel.name))
                return PostulateVerdict(name, (sem,), CheckResult.VIOLATED,
                                        witness)
    return PostulateVerdict(name, tuple(semantics), CheckResult.HOLDS)


def _x_above(sem: Semantics, order: ArgumentPartialOrder) -> _PairTest:
    return order.strictly_above


def _y_above(sem: Semantics, order: ArgumentPartialOrder) -> _PairTest:
    return lambda x, y: order.strictly_above(y, x)


def check_abstraction(framework: ArgumentationFramework,
                      permutation: Mapping[str, str] | None = None,
                      semantics: Sequence[Semantics] = RANKED_SEMANTICS,
                      ) -> PostulateVerdict:
    """Renaming arguments must not change any pairwise relation. The
    renamed copy lists its arguments in sorted label order, so they can
    move to other indices too and a ranking that reads indices rather
    than attacks fails the check."""
    labels = framework.labels
    if permutation is None:
        permutation = {labels[i]: labels[(i + 1) % len(labels)]
                       for i in range(len(labels))}
    renamed = relabel(framework, dict(permutation))
    renamed = ArgumentationFramework(sorted(renamed.labels), renamed.attacks)

    def required(sem: Semantics, order: ArgumentPartialOrder) -> _PairTest:
        mapped = _rank(renamed, sem)
        return lambda x, y: order.compare(x, y) is mapped.compare(
            permutation[x], permutation[y])

    return _first_failure(
        "abstraction", framework, semantics, _pairs(labels), required,
        "{x} vs {y} is {rel} but the renamed pair is not under {sem}")


def check_independence(framework: ArgumentationFramework,
                       strict: bool = False,
                       semantics: Sequence[Semantics] = RANKED_SEMANTICS,
                       ) -> PostulateVerdict:
    """A relation established inside a connected component must survive
    in the whole framework. Compared over the triples where the
    semantics is guaranteed to exist."""
    components = [c for c in connected_components(framework) if len(c) > 1]
    ranks = (ArgumentPartialOrder.strictly_above if strict
             else ArgumentPartialOrder.at_least)

    def required(sem: Semantics, order: ArgumentPartialOrder) -> _PairTest:
        whole, part = order._existence_safe(), {}
        for component in components:
            cut = _rank(component, sem)._existence_safe()
            part.update(dict.fromkeys(component.labels, cut))
        return lambda x, y: (ranks(whole, x, y)
                             or not ranks(part[x], x, y))

    return _first_failure(
        "strict independence" if strict else "independence", framework,
        semantics, [p for c in components for p in _pairs(c.labels)],
        required, f"{{x}} is {'strictly above' if strict else 'at least'} "
        "{y} in its component but not in the whole framework under {sem}")


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
    pairs = list(product(core.labels, core.complement().labels))
    return _first_failure(
        "void precedence", framework, sems, pairs, _x_above,
        "unattacked {x} is not strictly above {y} under {sem}")


def check_unattacked_equivalence(framework: ArgumentationFramework,
                                 semantics: Sequence[Semantics] = RANKED_SEMANTICS,
                                 ) -> PostulateVerdict:
    """All unattacked arguments share one equivalence class."""
    return _first_failure(
        "unattacked equivalence", framework, semantics,
        _pairs(unattacked_closure(framework).labels),
        lambda sem, order: lambda x, y: (order.compare(x, y)
                                         is Relation.EQUIVALENT),
        "unattacked {x} and {y} are {rel} under {sem}")


def check_self_contradiction(framework: ArgumentationFramework,
                             semantics: Semantics = Semantics.PREFERRED,
                             ) -> PostulateVerdict:
    """Every non-self-attacker must rank strictly above every
    self-attacker."""
    rows = framework.attacker_masks
    selfers = [lab for i, lab in enumerate(framework.labels)
               if rows[i] >> i & 1]
    others = [lab for lab in framework.labels if lab not in selfers]
    return _first_failure(
        "self contradiction", framework, (semantics,),
        list(product(selfers, others)), _y_above,
        "{y} is not strictly above the self-attacker {x}")


def check_cardinality_precedence(framework: ArgumentationFramework,
                                 semantics: Semantics = Semantics.GROUNDED,
                                 ) -> PostulateVerdict:
    """Fewer attackers must mean a strictly better rank."""
    degree = framework.in_degree
    return _first_failure(
        "cardinality precedence", framework, (semantics,),
        [(x, y) for x, y in _pairs(framework.labels) if degree(x) < degree(y)],
        _x_above,
        "{x} has fewer attackers than {y} but is not strictly above it")


def _attacker_labels(framework: ArgumentationFramework,
                     ) -> dict[str, list[str]]:
    return {lab: sorted(a.label for a in framework.attackers_of(lab))
            for lab in framework.labels}


def check_quality_precedence(framework: ArgumentationFramework,
                             semantics: Semantics = Semantics.PREFERRED,
                             ) -> PostulateVerdict:
    """If some attacker of y is strictly above every attacker of x,
    then x must be strictly above y."""
    attackers = _attacker_labels(framework)

    def required(sem: Semantics, order: ArgumentPartialOrder) -> _PairTest:
        return lambda x, y: order.strictly_above(x, y) or not any(
            all(order.strictly_above(q, p) for p in attackers[x])
            for q in attackers[y])

    return _first_failure(
        "quality precedence", framework, (semantics,),
        _pairs(framework.labels), required,
        "an attacker of {y} beats every attacker of {x}, "
        "yet {x} is not strictly above {y}")


def check_defense_precedence(framework: ArgumentationFramework,
                             semantics: Semantics = Semantics.GROUNDED,
                             ) -> PostulateVerdict:
    """Equal attack counts: a defended argument must beat an
    undefended one."""
    degree, defenders = framework.in_degree, framework.defenders_of
    pairs = [(x, y) for x, y in _pairs(framework.labels)
             if degree(x) == degree(y) >= 1
             and defenders(x) and not defenders(y)]
    return _first_failure(
        "defense precedence", framework, (semantics,), pairs, _x_above,
        "{x} is defended and {y} is not, with equal attack counts, "
        "yet {x} is not strictly above {y}")


def check_counter_transitivity(framework: ArgumentationFramework,
                               semantics: Semantics = Semantics.GROUNDED,
                               strict: bool = True) -> PostulateVerdict:
    """If y's attackers pairwise dominate x's attackers (injectively),
    x must be at least as good as y; strictly, in the strict form, when
    the domination is strict in count or in some matched pair."""
    attackers = _attacker_labels(framework)

    def required(sem: Semantics, order: ArgumentPartialOrder) -> _PairTest:
        def test(x: str, y: str) -> bool:
            if order.strictly_above(x, y) if strict else order.at_least(x, y):
                return True
            ax, ay = attackers[x], attackers[y]
            # permutations yields nothing when y has fewer attackers than x
            return not any(
                all(order.at_least(q, p) for p, q in zip(ax, image))
                and (not strict or len(ay) > len(ax)
                     or any(order.strictly_above(q, p)
                            for p, q in zip(ax, image)))
                for image in permutations(ay, len(ax)))
        return test

    return _first_failure(
        "strict counter-transitivity" if strict else "counter-transitivity",
        framework, (semantics,), _pairs(framework.labels), required,
        "attackers of {y} dominate those of {x}, yet {x} is not ranked "
        "accordingly")


def _with_path(framework: ArgumentationFramework, target: str,
               length: int) -> ArgumentationFramework:
    """The framework plus a fresh attack chain of the given length
    ending in target. The chain's labels start with the shortest run of
    w's that no label of the framework starts with."""
    prefix = "w"
    while any(lab.startswith(prefix) for lab in framework.labels):
        prefix += "w"
    chain = fixtures.attack_chain(length, target, prefix)
    return ArgumentationFramework(framework.labels + chain.labels[1:],
                                  framework.attacks + chain.attacks)


def _side_by_side(base: ArgumentationFramework,
                  variant: ArgumentationFramework, target: str,
                  ) -> tuple[ArgumentationFramework, list[tuple[str, str]]]:
    """The disjoint union of base and a copy of variant whose labels gain
    a suffix that no base label ends with, so that no copied label
    clashes, and the pair of target with its copy."""
    suffix = "_b"
    while any(lab.endswith(suffix) for lab in base.labels):
        suffix += "b"
    copy = relabel(variant, {lab: lab + suffix for lab in variant.labels})
    return disjoint_union(base, copy), [(target, target + suffix)]


def check_attack_path_addition(framework: ArgumentationFramework,
                               target: str, length: int = 1,
                               semantics: Semantics = Semantics.STABLE,
                               ) -> PostulateVerdict:
    """Grafting a fresh attack path of odd length onto an argument
    should strictly degrade it (even length: strictly improve it). The
    original and modified copies are ranked inside one disjoint union."""
    odd = length % 2
    union, pairs = _side_by_side(
        framework, _with_path(framework, target, length), target)
    return _first_failure(
        "attack path addition" if odd else "defense path addition", union,
        (semantics,), pairs, _x_above if odd else _y_above,
        f"adding a length-{length} path to {{x}} does not strictly "
        f"{'degrade' if odd else 'improve'} it under {{sem}}")


def _path_increase(length: int, semantics: Semantics,
                   name: str) -> PostulateVerdict:
    # odd = attack path: lengthening should help; even = defense path:
    # lengthening should hurt
    union, pairs = _side_by_side(fixtures.attack_chain(length),
                                 fixtures.attack_chain(length + 2), "y")
    return _first_failure(
        name, union, (semantics,), pairs, _y_above if length % 2 else _x_above,
        f"growing the path from {length} to {length + 2} leaves the "
        "targets {rel} under {sem}")


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
    with _memo():
        verdicts = check_named_counterexamples()
    ok = len(verdicts) == len(EXPECTED_BATTERY) and all(
        v.postulate == name and v.semantics == sems and v.result is result
        for v, (name, sems, result) in zip(verdicts, EXPECTED_BATTERY))
    return ok, verdicts


def corpus_checks(count: int = 30,
                  seed: int = 0) -> tuple[PostulateVerdict, ...]:
    """Aggregate, over a seeded random corpus (3 to 6 arguments, each
    attack drawn with probability 0.25), the properties that must hold on
    every framework. One verdict per property, in the order first
    checked; the first violating framework, if any, becomes the
    witness. The call ranks each (framework, semantics) once."""
    found: dict[str, PostulateVerdict] = {}

    def record(verdict: PostulateVerdict) -> None:
        current = found.get(verdict.postulate)
        if current is None or (current.result is CheckResult.HOLDS
                               and verdict.result is CheckResult.VIOLATED):
            found[verdict.postulate] = verdict

    with _memo():
        for i in range(count):
            fw = random_framework(3 + i % 4, 0.25, seed + i)
            rng = random.Random((seed + i) * 7919)
            shuffled = list(fw.labels)
            rng.shuffle(shuffled)
            permutation = dict(zip(fw.labels, shuffled))
            record(check_abstraction(fw, permutation))
            record(check_independence(fw))
            record(check_void_precedence(fw))
            record(check_unattacked_equivalence(fw))
    return tuple(found.values())
