"""Propositional formulas with integer truth-table entailment.

Formulas are immutable ASTs over named atoms with negation,
conjunction, disjunction, and implication. One table, ``_CONNECTIVES``,
gives each binary connective its class, its precedence and whether it
groups to the right; the parser, its check for a misplaced connective
and the renderer all read it. A formula is compiled once into an
integer truth table over a fixed order of k atoms: bit r is its value
on row r, the row that gives the i-th atom the value of bit i of r. A
set of formulas is then consistent when the AND of their tables is
non-zero, and premises entail a goal when they are inconsistent with
its negation. Tables have 2^k bits, so k is capped at 16 distinct
atoms. The compiler and the atom walk keep explicit stacks instead of
recursing, so they take formulas of any depth. Hashing, comparing and
rendering a formula recurse once or twice per level, so the parser
refuses formulas deeper than ``MAX_DEPTH`` levels, which keeps them far
inside the interpreter's default recursion limit.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import AtomBoundError, FormulaParseError

MAX_ATOMS = 16
MAX_DEPTH = 200


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

# symbol: (class, precedence, groups right); negation binds tighter, at 4
_CONNECTIVES: dict[str, tuple[type, int, bool]] = {
    "->": (Implies, 1, True), "|": (Or, 2, False), "&": (And, 3, False)}
_SYMBOLS = {make: (symbol, prec, right)
            for symbol, (make, prec, right) in _CONNECTIVES.items()}

_TOKEN = re.compile(r"\s*(?:(->|[!&|()]|[a-z][a-z0-9_]*)|(\S))")


def _tokens(text: str) -> list[tuple[str, int]]:
    """Each token with its 1-based column, in one pass that ends at the
    trailing whitespace: past that bound the scan would retry every
    position of it. A character no token starts with is an error."""
    tokens = []
    for match in _TOKEN.finditer(text, 0, len(text.rstrip())):
        token, bad = match.groups()
        if bad:
            raise FormulaParseError(f"unexpected character {bad!r}",
                                    match.start(2) + 1)
        tokens.append((token, match.start(1) + 1))
    return tokens


def parse_formula(text: str) -> Formula:
    """Grammar: binary connectives by precedence climbing over the
    connective table (implication lowest and right-grouping, then
    disjunction, then conjunction), over negation over atoms and
    parentheses. Each function returns a subtree with its height, an
    atom counting as one, so a formula deeper than ``MAX_DEPTH`` is
    refused before the first node that would pass the bound is built."""
    tokens = _tokens(text)
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

    def node(make: type, *parts: tuple[Formula, int]) -> tuple[Formula, int]:
        formulas, heights = zip(*parts)
        height = max(heights) + 1
        if height > MAX_DEPTH:
            raise FormulaParseError("formula is nested too deeply")
        return make(*formulas), height

    def binary(lowest: int) -> tuple[Formula, int]:
        """Operands joined by connectives of precedence ``lowest`` or
        more; a right operand takes only tighter connectives, or equal
        ones too where the connective groups right."""
        left = unary()
        while peek() in _CONNECTIVES and _CONNECTIVES[peek()][1] >= lowest:
            make, prec, right = _CONNECTIVES[take()[0]]
            left = node(make, left, binary(prec if right else prec + 1))
        return left

    def unary() -> tuple[Formula, int]:
        tok = peek()
        if tok is None:
            raise FormulaParseError("formula ends unexpectedly",
                                    len(text) + 1)
        if tok == "!":
            take()
            return node(Not, unary())
        if tok == "(":
            take()
            inner = binary(1)
            nxt, col = take() if peek() is not None else (None, len(text) + 1)
            if nxt != ")":
                raise FormulaParseError("expected ')'", col)
            return inner
        word, col = take()
        if word in _CONNECTIVES or word == ")":
            raise FormulaParseError(f"unexpected {word!r}", col)
        return Atom(word), 1

    try:
        # parentheses add no height but each one recurses, as does each
        # right-nested level before its node is built, so deep input can
        # exhaust the stack before any height passes the bound
        result, _ = binary(1)
    except RecursionError:
        raise FormulaParseError("formula is nested too deeply") from None
    if index < len(tokens):
        raise FormulaParseError(
            f"unexpected trailing {tokens[index][0]!r}", tokens[index][1])
    return result


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses for the parser's precedence. The
    side a connective groups towards is rendered at its own precedence
    and the other side one level tighter, so a same-connective child on
    that side keeps its parentheses and the tree round-trips."""

    def render(g: Formula, parent: int) -> str:
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, Not):
            return "!" + render(g.operand, 4)
        symbol, prec, right = _SYMBOLS[type(g)]
        text = (f"{render(g.left, prec + right)} {symbol} "
                f"{render(g.right, prec + (not right))}")
        return f"({text})" if prec < parent else text

    return render(f, 0)


def atoms(f: Formula) -> frozenset[str]:
    names: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            names.add(g.name)
        elif isinstance(g, Not):
            stack.append(g.operand)
        else:
            stack += (g.left, g.right)
    return frozenset(names)


def _compile(f: Formula, atom_tables: Mapping[str, int], rows: int) -> int:
    """The table of f, given each atom's table and the table of all
    rows, by a post-order walk: a connective's class is pushed as a
    marker below its operands and applied once their tables are on the
    value stack."""
    values: list[int] = []
    stack: list[Formula | type] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            values.append(atom_tables[g.name])
        elif g is Not:
            values.append(rows ^ values.pop())
        elif isinstance(g, type):
            right, left = values.pop(), values.pop()
            values.append(left & right if g is And else
                          left | right if g is Or else (rows ^ left) | right)
        elif isinstance(g, Not):
            stack += (Not, g.operand)
        else:
            stack += (type(g), g.right, g.left)
    return values[0]


def truth_tables(formulas: Iterable[Formula]) -> tuple[tuple[int, ...], int]:
    """Each formula's table over the sorted union of their atoms, and
    the table of all rows."""
    fs = list(formulas)
    names = sorted(frozenset().union(*map(atoms, fs)))
    if len(names) > MAX_ATOMS:
        raise AtomBoundError(
            f"{len(names)} atoms exceed the truth-table bound {MAX_ATOMS}")
    rows = (1 << (1 << len(names))) - 1
    # atom i is false on 2^i rows, then true on the next 2^i, repeating
    atom_tables = {
        name: (((1 << (1 << i)) - 1) << (1 << i))
        * (rows // ((1 << (2 << i)) - 1))
        for i, name in enumerate(names)}
    return tuple(_compile(f, atom_tables, rows) for f in fs), rows


def evaluate(f: Formula, assignment: Mapping[str, bool]) -> bool:
    """The value of f under the assignment: its one-row truth table."""
    row = {name: 1 if assignment[name] else 0 for name in atoms(f)}
    return _compile(f, row, 1) == 1


def is_consistent(formulas: Iterable[Formula]) -> bool:
    tables, rows = truth_tables(formulas)
    for table in tables:
        rows &= table
    return rows != 0


def entails(premises: Iterable[Formula], goal: Formula) -> bool:
    return not is_consistent([*premises, Not(goal)])


def strip_double_negation(f: Formula) -> Formula:
    while isinstance(f, Not) and isinstance(f.operand, Not):
        f = f.operand.operand
    return f


def complement(f: Formula) -> Formula:
    """The syntactic opposite used by the attack relation: negate, then
    collapse any double negation at the top."""
    return strip_double_negation(Not(f))
