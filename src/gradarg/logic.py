"""Propositional formulas with truth-table entailment.

Formulas are immutable ASTs over named atoms with negation,
conjunction, disjunction, and implication. Entailment and consistency
are decided by exhaustive truth tables, capped at 16 distinct atoms.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from .errors import AtomBoundError, FormulaParseError

MAX_ATOMS = 16


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Atom | Not | And | Or | Implies

_TOKEN = re.compile(r"\s*(->|[!&|()]|[a-z][a-z0-9_]*)")


def parse_formula(text: str) -> Formula:
    """Grammar: implication (right-assoc, lowest) over disjunction over
    conjunction over negation over atoms and parentheses."""
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos:].isspace():
            break
        match = _TOKEN.match(text, pos)
        if not match:
            bad = pos
            while text[bad].isspace():
                bad += 1
            raise FormulaParseError(
                f"unexpected character {text[bad]!r}", bad + 1)
        tokens.append((match.group(1), match.start(1) + 1))
        pos = match.end()
    if not tokens:
        raise FormulaParseError("empty formula", 1)

    index = 0

    def peek() -> str | None:
        return tokens[index][0] if index < len(tokens) else None

    def take() -> tuple[str, int]:
        nonlocal index
        tok = tokens[index]
        index += 1
        return tok

    def implication() -> Formula:
        left = disjunction()
        if peek() == "->":
            take()
            return Implies(left, implication())
        return left

    def disjunction() -> Formula:
        left = conjunction()
        while peek() == "|":
            take()
            left = Or(left, conjunction())
        return left

    def conjunction() -> Formula:
        left = unary()
        while peek() == "&":
            take()
            left = And(left, unary())
        return left

    def unary() -> Formula:
        tok = peek()
        if tok is None:
            raise FormulaParseError("formula ends unexpectedly",
                                    len(text) + 1)
        if tok == "!":
            take()
            return Not(unary())
        if tok == "(":
            take()
            inner = implication()
            nxt, col = take() if peek() is not None else (None, len(text) + 1)
            if nxt != ")":
                raise FormulaParseError("expected ')'", col)
            return inner
        word, col = take()
        if word in ("&", "|", "->", ")"):
            raise FormulaParseError(f"unexpected {word!r}", col)
        return Atom(word)

    try:
        result = implication()
    except RecursionError:
        raise FormulaParseError("formula is nested too deeply") from None
    if index < len(tokens):
        raise FormulaParseError(
            f"unexpected trailing {tokens[index][0]!r}", tokens[index][1])
    return result


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses for the parser's precedence."""

    def render(g: Formula, parent: int) -> str:
        # precedence levels: -> 1, | 2, & 3, ! 4, atom 5
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, Not):
            return "!" + render(g.operand, 4)
        if isinstance(g, And):
            # & and | parse left-associative, so a same-operator right
            # child must keep its parentheses to round-trip the tree
            text, prec = f"{render(g.left, 3)} & {render(g.right, 4)}", 3
        elif isinstance(g, Or):
            text, prec = f"{render(g.left, 2)} | {render(g.right, 3)}", 2
        else:
            text, prec = f"{render(g.left, 2)} -> {render(g.right, 1)}", 1
        return f"({text})" if prec < parent else text

    return render(f, 0)


def atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, Not):
        return atoms(f.operand)
    return atoms(f.left) | atoms(f.right)


def evaluate(f: Formula, assignment: Mapping[str, bool]) -> bool:
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Not):
        return not evaluate(f.operand, assignment)
    if isinstance(f, And):
        return evaluate(f.left, assignment) and evaluate(f.right, assignment)
    if isinstance(f, Or):
        return evaluate(f.left, assignment) or evaluate(f.right, assignment)
    return not evaluate(f.left, assignment) or evaluate(f.right, assignment)


def _assignments(names: frozenset[str]) -> Iterable[dict[str, bool]]:
    ordered = sorted(names)
    if len(ordered) > MAX_ATOMS:
        raise AtomBoundError(
            f"{len(ordered)} atoms exceed the truth-table bound {MAX_ATOMS}")
    for values in product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, values))


def is_consistent(formulas: Iterable[Formula]) -> bool:
    fs = list(formulas)
    names = frozenset().union(*(atoms(f) for f in fs)) if fs else frozenset()
    return any(all(evaluate(f, a) for f in fs) for a in _assignments(names))


def entails(premises: Iterable[Formula], goal: Formula) -> bool:
    ps = list(premises)
    names = atoms(goal)
    for f in ps:
        names |= atoms(f)
    return all(evaluate(goal, a) for a in _assignments(names)
               if all(evaluate(f, a) for f in ps))


def strip_double_negation(f: Formula) -> Formula:
    while isinstance(f, Not) and isinstance(f.operand, Not):
        f = f.operand.operand
    return f


def complement(f: Formula) -> Formula:
    """The syntactic opposite used by the attack relation: negate, then
    collapse any double negation at the top."""
    return strip_double_negation(Not(f))


def complementary(f: Formula, g: Formula) -> bool:
    """Whether one formula is the (double-negation-normalized) negation
    of the other."""
    a, b = strip_double_negation(f), strip_double_negation(g)
    return a == Not(b) or b == Not(a)
