import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

import oracles as oc
from gradarg import logic
from gradarg.errors import AtomBoundError, FormulaParseError
from gradarg.logic import (And, Atom, Implies, MAX_ATOMS, MAX_DEPTH, Not, Or,
                           atoms, complement, entails, evaluate,
                           _tokens, format_formula, is_consistent,
                           parse_formula, strip_double_negation, truth_tables)

a, b, c = Atom("a"), Atom("b"), Atom("c")


# -- parsing -----------------------------------------------------------------


def test_precedence_implication_lowest():
    assert parse_formula("a | b -> c & a") == Implies(Or(a, b), And(c, a))


def test_precedence_and_binds_tighter_than_or():
    assert parse_formula("a | b & c") == Or(a, And(b, c))


def test_negation_binds_tightest():
    assert parse_formula("!a & b") == And(Not(a), b)
    assert parse_formula("!(a & b)") == Not(And(a, b))


def test_implication_right_associative():
    assert parse_formula("a -> b -> c") == Implies(a, Implies(b, c))


def test_and_or_left_associative():
    assert parse_formula("a & b & c") == And(And(a, b), c)
    assert parse_formula("a | b | c") == Or(Or(a, b), c)


def test_atom_names_allow_digits_and_underscore():
    assert parse_formula("p_1 & q2x") == And(Atom("p_1"), Atom("q2x"))


def test_double_negation_parses_as_nested():
    assert parse_formula("!!a") == Not(Not(a))


@pytest.mark.parametrize("text, column", [
    ("", 1),
    ("   ", 1),
    ("a &", 4),
    ("(a", 3),
    ("a b", 3),
    ("& a", 1),
    ("a ? b", 3),
])
def test_parse_errors_carry_column(text, column):
    with pytest.raises(FormulaParseError) as err:
        parse_formula(text)
    assert err.value.position == column
    assert f"column {column}:" in str(err.value)


_LOOP_TOKEN = re.compile(r"\s*(->|[!&|()]|[a-z][a-z0-9_]*)")


def _loop_tokens(text):
    """The tokenizer loop that ``_tokens`` replaced, as the reference: it
    tests the rest of the text for whitespace once per token."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].isspace():
            break
        match = _LOOP_TOKEN.match(text, pos)
        if not match:
            bad = pos
            while text[bad].isspace():
                bad += 1
            raise FormulaParseError(
                f"unexpected character {text[bad]!r}", bad + 1)
        tokens.append((match.group(1), match.start(1) + 1))
        pos = match.end()
    return tokens


def _tokenized(tokenize, text):
    try:
        return tokenize(text)
    except FormulaParseError as exc:
        return str(exc), exc.position


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def test_tokens_match_the_loop_on_random_text():
    """Token texts, columns and error messages against the loop, on
    strings over the token alphabet, '-', upper case, digits and every
    Unicode whitespace character."""
    rng = random.Random(20)
    alphabet = [*"!&|()->abz_09AZ", "->", *WHITESPACE]
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert _tokenized(_tokens, text) == _tokenized(_loop_tokens, text), \
            repr(text)


class _ScanBound:
    """A token pattern behind a check that no scan runs past the last
    non-space character of its text."""

    def __init__(self, pattern):
        self.pattern = pattern

    def finditer(self, text, pos=0, endpos=None):
        end = len(text) if endpos is None else endpos
        assert end <= len(text.rstrip()), "scan reaches trailing whitespace"
        return self.pattern.finditer(text, pos, end)


def test_long_whitespace_runs_cost_one_pass(monkeypatch):
    """Inner runs are skipped by the token pattern and the trailing run is
    never scanned: without the end bound, the pattern's retries would make
    40,000 trailing spaces cost tens of seconds, and the scan bound fails
    the first call instead."""
    monkeypatch.setattr(logic, "_TOKEN", _ScanBound(logic._TOKEN))
    assert parse_formula("a" + " " * 40_000) == a
    text = "a" + " " * 40_000 + "&\u3000" + "\u2003" * 40_000 + "b"
    assert parse_formula(text + "\t" * 40_000) == And(a, b)
    with pytest.raises(FormulaParseError) as err:
        parse_formula("a" + " " * 40_000 + "?" + " " * 40_000)
    assert err.value.position == 40_002
    assert _tokens(text) == _loop_tokens(text)


def test_unexpected_close_paren():
    with pytest.raises(FormulaParseError):
        parse_formula("a )")
    with pytest.raises(FormulaParseError):
        parse_formula(")")


@pytest.mark.parametrize("chain", [
    lambda d: "!" * (d - 1) + "a",
    lambda d: " -> ".join(["a"] * d),
    lambda d: " & ".join(["a"] * d),
    lambda d: " | ".join(["b"] * (d - 1)) + " | !a",
], ids=["negation", "implication", "conjunction", "disjunction"])
def test_parser_bounds_formula_depth(chain):
    """Each chain has exactly d levels, nested right (negation,
    implication) or left (conjunction, disjunction). At the bound it
    parses, and hashing, comparing and rendering it stay within the
    recursion limit; one level more is refused."""
    f = parse_formula(chain(MAX_DEPTH))
    assert parse_formula(format_formula(f)) == f
    assert hash(f) == hash(parse_formula(chain(MAX_DEPTH)))
    with pytest.raises(FormulaParseError, match="nested too deeply"):
        parse_formula(chain(MAX_DEPTH + 1))


def test_deep_chains_are_refused_before_they_are_built(monkeypatch):
    """The 160,001-operand disjunction is refused once its height passes
    the bound, after at most MAX_DEPTH Or nodes, not the whole chain."""
    built = []
    monkeypatch.setitem(
        logic._CONNECTIVES, "|",
        (lambda left, right: built.append(1) or Or(left, right),
         *logic._CONNECTIVES["|"][1:]))
    with pytest.raises(FormulaParseError, match="nested too deeply"):
        parse_formula(" | ".join(["a"] * 160_001))
    assert 0 < len(built) <= MAX_DEPTH


def test_parentheses_add_no_depth():
    """300 levels parse: the parser spends two frames per parenthesis,
    well inside the recursion limit. 3,000 exhaust it and are refused."""
    assert parse_formula("(" * 100 + "a" + ")" * 100) == a
    assert parse_formula("(" * 300 + "a" + ")" * 300) == a
    with pytest.raises(FormulaParseError, match="nested too deeply"):
        parse_formula("(" * 3000 + "a" + ")" * 3000)


# -- formatting --------------------------------------------------------------


def test_format_minimal_parentheses():
    assert format_formula(Implies(Or(a, b), And(c, a))) == "a | b -> c & a"
    assert format_formula(Or(a, And(b, c))) == "a | b & c"
    assert format_formula(And(Or(a, b), c)) == "(a | b) & c"
    assert format_formula(Not(And(a, b))) == "!(a & b)"
    assert format_formula(Not(a)) == "!a"


def test_format_keeps_right_nested_same_operator_grouping():
    assert format_formula(And(a, And(b, c))) == "a & (b & c)"
    assert format_formula(Or(a, Or(b, c))) == "a | (b | c)"
    assert format_formula(Implies(a, Implies(b, c))) == "a -> b -> c"
    assert format_formula(Implies(Implies(a, b), c)) == "(a -> b) -> c"


FORMULA_TEXT = ["a", "b", "c", "d"]


def _random_formula_text(rng, depth=3):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(FORMULA_TEXT)
    op = rng.choice(["!", "&", "|", "->"])
    if op == "!":
        return f"!({_random_formula_text(rng, depth - 1)})"
    left = _random_formula_text(rng, depth - 1)
    right = _random_formula_text(rng, depth - 1)
    return f"({left}) {op} ({right})"


formula_asts = st.recursive(
    st.sampled_from([a, b, c, Atom("d")]),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda t: And(*t)),
        st.tuples(children, children).map(lambda t: Or(*t)),
        st.tuples(children, children).map(lambda t: Implies(*t))),
    max_leaves=12)


@given(formula_asts)
def test_format_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


# -- evaluation, consistency, entailment -------------------------------------


@given(formula_asts)
def test_evaluate_matches_structural_recursion(f):
    names = sorted(atoms(f))
    for values in itertools.product((False, True), repeat=len(names)):
        row = dict(zip(names, values))
        assert evaluate(f, row) == oc.evaluate(f, row)


@given(st.lists(formula_asts, max_size=3))
def test_is_consistent_matches_oracle(fs):
    assert is_consistent(fs) == oc.consistent(fs)


@given(st.lists(formula_asts, max_size=3), formula_asts)
def test_entails_matches_oracle(fs, goal):
    assert entails(fs, goal) == oc.entails(fs, goal)


@given(st.lists(formula_asts, min_size=1, max_size=3))
def test_truth_tables_match_oracle_on_every_row(fs):
    """Row r gives the i-th atom of the shared sorted order the value of
    bit i of r, so a formula's table also covers atoms it lacks."""
    tables, rows = truth_tables(fs)
    names = sorted(frozenset().union(*map(oc.formula_atoms, fs)))
    assert rows == (1 << (1 << len(names))) - 1
    for r in range(1 << len(names)):
        row = {name: bool(r >> i & 1) for i, name in enumerate(names)}
        for f, table in zip(fs, tables):
            assert bool(table >> r & 1) == oc.evaluate(f, row)


def test_deep_negation_chains_are_decided_by_parity():
    for depth in (5000, 5001):
        chain = a
        for _ in range(depth):
            chain = Not(chain)
        even = depth % 2 == 0
        assert atoms(chain) == {"a"}
        assert evaluate(chain, {"a": True}) is even
        assert is_consistent([chain])
        assert is_consistent([chain, a]) is even
        assert entails([chain], a) is even
        assert entails([a], chain) is even
        assert entails([chain], Not(a)) is not even
        assert entails([b, Not(b)], chain)


def test_entailment_basics():
    assert entails([a], a)
    assert entails([a, Implies(a, b)], b)
    assert not entails([Or(a, b)], a)
    assert entails([], Or(a, Not(a)))
    assert not entails([], a)


def test_consistency_basics():
    assert is_consistent([])
    assert is_consistent([a, b])
    assert not is_consistent([a, Not(a)])
    assert not is_consistent([And(a, Not(a))])


def test_atom_bound_enforced():
    wide = [Atom(f"p{i}") for i in range(MAX_ATOMS + 1)]
    big = wide[0]
    for atom_ in wide[1:]:
        big = And(big, atom_)
    with pytest.raises(AtomBoundError):
        is_consistent([big])
    assert is_consistent([And(*wide[:2])] + wide[:MAX_ATOMS])


# -- complements -------------------------------------------------------------


def test_strip_double_negation():
    assert strip_double_negation(Not(Not(a))) == a
    assert strip_double_negation(Not(Not(Not(a)))) == Not(a)
    assert strip_double_negation(Not(a)) == Not(a)
    assert strip_double_negation(And(Not(Not(a)), b)) == And(Not(Not(a)), b)


def test_complement_collapses_top_level():
    assert complement(a) == Not(a)
    assert complement(Not(a)) == a
    assert complement(Not(Not(a))) == Not(a)
    assert complement(And(a, b)) == Not(And(a, b))


@given(formula_asts)
def test_complement_is_complementary_and_involutive_up_to_dnn(f):
    g = complement(f)
    assert oc.complementary(f, g)
    assert oc.complementary(g, f)
    assert complement(g) == strip_double_negation(f)


def test_complementary_examples():
    assert oc.complementary(a, Not(a))
    assert oc.complementary(Not(Not(a)), Not(a))
    assert not oc.complementary(a, b)
    assert not oc.complementary(a, a)
