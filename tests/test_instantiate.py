import pytest

import oracles as oc
from conftest import random_kb_text
from gradarg import instantiate
from gradarg.errors import (AtomBoundError, KnowledgeBaseError,
                            TooLargeError)
from gradarg.instantiate import (ClassicalArgument, KnowledgeBase,
                                 build_defeat_graph, generate_arguments,
                                 graded_inference, parse_kb,
                                 preferred_subtheories,
                                 ps_correspondence_check)
from gradarg.kernel import GradeParams
from gradarg.logic import (complement, entails, format_formula,
                           parse_formula)
from gradarg.ranking import Relation, absolute_rank
from gradarg.semantics import JustificationMode, Semantics

CONFLICT_BASE = "1: a\n1: b\n1: !a | !b\n1: !a\n"
DEMOTED_BASE = "1: a\n1: b\n1: !a | !b\n2: !a\n"
TWO_PS_BASE = "1: !a | !b\n2: a\n2: b\n"
# seven formulas over five atoms each, wider than the random bases
WIDE_BASES = (
    "1: a\n1: a -> b\n2: b -> c\n2: !c | d\n3: !d\n3: e & !a\n3: c | e\n",
    "1: a | b\n1: !a | c\n2: !b\n2: d -> !c\n2: d\n3: e -> a\n3: !e | !c\n",
)


def formula_sets(sets) -> set[frozenset]:
    return {frozenset(s) for s in sets}


# -- knowledge-base parsing ------------------------------------------------------


def test_parse_kb_orders_strata_by_index():
    kb = parse_kb("3: c\n1: a\n1: b\n3: d\n")
    assert kb.strata == (
        (parse_formula("a"), parse_formula("b")),
        (parse_formula("c"), parse_formula("d")))
    assert [format_formula(f) for f in kb.formulas] == ["a", "b", "c", "d"]


def test_parse_kb_error_lines():
    with pytest.raises(KnowledgeBaseError,
                       match="^line 2: expected 'k: ") as info:
        parse_kb("1: a\nb & c\n")
    assert info.value.line == 2
    with pytest.raises(KnowledgeBaseError, match="line 1: stratum index"):
        parse_kb("0: a\n")
    with pytest.raises(KnowledgeBaseError, match=r"line 2: column 4"):
        parse_kb("1: a\n2: b &\n")
    with pytest.raises(KnowledgeBaseError,
                       match="line 3: formula already given on line 1"):
        parse_kb("1: a\n1: b\n2: a\n")
    with pytest.raises(KnowledgeBaseError, match="empty knowledge base"):
        parse_kb("   \n\n")


def test_knowledge_base_validation():
    a, b = parse_formula("a"), parse_formula("b")
    with pytest.raises(KnowledgeBaseError, match="empty knowledge base"):
        KnowledgeBase(())
    with pytest.raises(KnowledgeBaseError, match="stratum 2 is empty"):
        KnowledgeBase(((a,), ()))
    with pytest.raises(KnowledgeBaseError, match="duplicate formula 'a'"):
        KnowledgeBase(((a,), (a, b)))
    wide = tuple((parse_formula(f"x{i}"),) for i in range(17))
    with pytest.raises(AtomBoundError, match="17 atoms"):
        KnowledgeBase(wide)


# -- preferred subtheories -------------------------------------------------------


def test_preferred_subtheories_of_the_two_ps_base():
    ps = preferred_subtheories(parse_kb(TWO_PS_BASE))
    assert formula_sets(ps) == {
        frozenset({parse_formula("!a | !b"), parse_formula("a")}),
        frozenset({parse_formula("!a | !b"), parse_formula("b")})}


def test_preferred_subtheories_of_consistent_and_conflicting_bases():
    kb = parse_kb("1: a\n2: a -> b\n")
    assert formula_sets(preferred_subtheories(kb)) == {
        frozenset(kb.formulas)}
    split = preferred_subtheories(parse_kb("1: a\n1: !a\n"))
    assert formula_sets(split) == {
        frozenset({parse_formula("a")}), frozenset({parse_formula("!a")})}


def test_preferred_subtheories_match_oracle_on_random_bases():
    for seed in range(50):
        kb = parse_kb(random_kb_text(seed))
        got = formula_sets(preferred_subtheories(kb))
        want = oc.preferred_subtheories([list(s) for s in kb.strata])
        assert got == want, seed


# -- argument generation ---------------------------------------------------------


def test_generated_arguments_for_the_conflicting_base():
    args = generate_arguments(parse_kb(CONFLICT_BASE))
    assert [str(a) for a in args] == [
        "({a}, a)",
        "({b}, b)",
        "({a, b}, !(!a | !b))",
        "({!a | !b}, !a | !b)",
        "({!a | !b, a}, !b)",
        "({!a | !b, b}, !a)",
        "({!a}, !a)",
    ]
    assert [a.premises == {a.claim} for a in args] == [
        True, True, False, True, False, False, True]


def test_generated_arguments_satisfy_the_definition():
    for seed in range(25):
        kb = parse_kb(random_kb_text(seed + 300))
        base = list(kb.formulas)
        complements = {complement(beta) for beta in base}
        for arg in generate_arguments(kb):
            premises = list(arg.premises)
            assert oc.consistent(premises)
            assert oc.entails(premises, arg.claim)
            if arg.premises == {arg.claim}:
                continue
            assert arg.claim in complements
            assert frozenset(premises) in oc.minimal_entailers(base,
                                                               arg.claim)


def test_generated_arguments_are_exactly_the_definition():
    """Completeness as well as soundness: premise arguments of the
    consistent formulas, plus every minimal entailer of a complement."""
    texts = [random_kb_text(seed + 300) for seed in range(25)]
    for text in texts + list(WIDE_BASES):
        kb = parse_kb(text)
        base = list(kb.formulas)
        expected = {(frozenset((beta,)), beta) for beta in base
                    if oc.consistent([beta])}
        for claim in {complement(beta) for beta in base}:
            expected |= {(premises, claim) for premises
                         in oc.minimal_entailers(base, claim)}
        got = {(arg.premises, arg.claim) for arg in generate_arguments(kb)}
        assert got == expected, text


def test_inconsistent_base_formulas_get_no_premise_argument():
    args = generate_arguments(parse_kb("1: a & !a\n1: b\n"))
    assert len(args) == 2
    empty_premises, premise_b = args
    assert empty_premises.premises == frozenset()
    assert empty_premises.claim == complement(parse_formula("a & !a"))
    assert str(premise_b) == "({b}, b)"


def test_generated_argument_cap():
    with pytest.raises(TooLargeError, match="exceed the limit 5"):
        generate_arguments(parse_kb(CONFLICT_BASE), max_args=5)
    with pytest.raises(TooLargeError):
        build_defeat_graph(parse_kb(CONFLICT_BASE), max_args=5)


# -- defeat graphs ---------------------------------------------------------------


def test_defeat_graph_of_the_single_class_base():
    graph = build_defeat_graph(parse_kb(CONFLICT_BASE))
    assert graph.framework.labels == tuple(f"A{i}" for i in range(1, 8))
    expected = {
        ("A1", "A7"), ("A3", "A4"), ("A3", "A5"), ("A3", "A6"),
        ("A5", "A2"), ("A5", "A3"), ("A5", "A6"),
        ("A6", "A1"), ("A6", "A3"), ("A6", "A5"),
        ("A7", "A1"), ("A7", "A3"), ("A7", "A5"),
    }
    assert set(graph.framework.attacks) == expected
    # one stratum means no strict preferences, so every attack defeats
    assert graph.attack_pairs == frozenset(expected)


def test_defeat_graph_argument_lookup_roundtrip():
    graph = build_defeat_graph(parse_kb(CONFLICT_BASE))
    for label, arg in zip(graph.framework.labels, graph.arguments):
        assert graph.argument_of(label) is arg
    assert graph.argument_of("A7") == ClassicalArgument(
        frozenset({parse_formula("!a")}), parse_formula("!a"))


def test_demoting_a_formula_removes_only_its_defeats():
    whole = build_defeat_graph(parse_kb(CONFLICT_BASE))
    demoted = build_defeat_graph(parse_kb(DEMOTED_BASE))
    assert demoted.attack_pairs == whole.attack_pairs
    lost = demoted.attack_pairs - frozenset(demoted.framework.attacks)
    assert lost == {("A7", "A1"), ("A7", "A3"), ("A7", "A5")}


def test_attack_without_defeat_across_strata():
    graph = build_defeat_graph(parse_kb("1: a\n2: !a\n"))
    assert [str(a) for a in graph.arguments] == ["({a}, a)", "({!a}, !a)"]
    assert graph.attack_pairs == {("A1", "A2"), ("A2", "A1")}
    assert graph.framework.attacks == (("A1", "A2"),)


def test_single_formula_base_yields_one_isolated_node():
    graph = build_defeat_graph(parse_kb("1: a\n"))
    assert graph.framework.labels == ("A1",)
    assert graph.framework.attacks == ()
    assert graph.attack_pairs == frozenset()


def test_defeat_graph_edges_match_direct_definition():
    """Independent edge assembly from the published attack and defeat
    conditions over the generated arguments."""
    for seed in range(25):
        kb = parse_kb(random_kb_text(seed + 900))
        graph = build_defeat_graph(kb)
        args = graph.arguments
        labels = graph.framework.labels
        attacks: set[tuple[str, str]] = set()
        defeats: set[tuple[str, str]] = set()
        for i, attacker in enumerate(args):
            worst = max((oc.stratum_of(kb.strata, g)
                         for g in attacker.premises), default=0)
            for j, target in enumerate(args):
                for beta in target.premises:
                    if oc.complementary(attacker.claim, beta):
                        attacks.add((labels[i], labels[j]))
                        if worst <= oc.stratum_of(kb.strata, beta):
                            defeats.add((labels[i], labels[j]))
        assert graph.attack_pairs == attacks
        assert set(graph.framework.attacks) == defeats
        assert defeats <= attacks
        if len(kb.strata) == 1:
            assert defeats == attacks


# -- the subtheory correspondence ------------------------------------------------


def test_correspondence_examples():
    for text in (TWO_PS_BASE, "1: a\n2: a -> b\n", CONFLICT_BASE):
        report = ps_correspondence_check(parse_kb(text))
        assert report.matches
        assert report.stable_equals_preferred
        assert "match the subtheories" in report.detail
    two = ps_correspondence_check(parse_kb(TWO_PS_BASE))
    assert formula_sets(two.stable_premise_sets) == formula_sets(
        two.subtheory_premise_sets)
    assert len(two.subtheory_premise_sets) == 2


@pytest.mark.parametrize("change, detail", [
    (lambda found: found[1:],
     "extra stable premise sets: {!a | !b, a}"),
    (lambda found: found + (frozenset(map(parse_formula, ("a", "!(c & d)"))),),
     "unmatched subtheories: {!(c & d), a}"),
    (lambda found: (frozenset({parse_formula("q")}),),
     "extra stable premise sets: {!a | !b, a}; {!a | !b, b}; "
     "unmatched subtheories: {q}"),
])
def test_correspondence_mismatch_detail(monkeypatch, change, detail):
    """A mismatch names each extra and each unmatched set, braced, in
    text order; the report's premise sets come sorted by their text."""
    real = instantiate.preferred_subtheories
    monkeypatch.setattr(instantiate, "preferred_subtheories",
                        lambda kb: change(real(kb)))
    report = ps_correspondence_check(parse_kb(TWO_PS_BASE))
    assert not report.matches
    assert report.stable_equals_preferred
    assert report.detail == detail
    assert [[format_formula(f) for f in sorted(s, key=format_formula)]
            for s in report.stable_premise_sets] == [
        ["!a | !b", "a"], ["!a | !b", "b"]]


def test_correspondence_on_random_corpus():
    for seed in range(50):
        kb = parse_kb(random_kb_text(seed))
        report = ps_correspondence_check(kb)
        assert report.matches, (seed, report.detail)
        assert report.stable_equals_preferred
        assert formula_sets(report.subtheory_premise_sets) == (
            oc.preferred_subtheories([list(s) for s in kb.strata]))


def test_a_parsed_base_is_compiled_once(monkeypatch):
    """``parse_kb`` compiles the base's truth tables; the subtheories and
    the argument generation of a correspondence check read them and
    compile nothing more."""
    compiles = []
    real = instantiate.truth_tables
    monkeypatch.setattr(instantiate, "truth_tables",
                        lambda fs: compiles.append(fs) or real(fs))
    for text in (TWO_PS_BASE, CONFLICT_BASE, *WIDE_BASES):
        compiles.clear()
        kb = parse_kb(text)
        assert compiles == [kb.formulas]
        assert ps_correspondence_check(kb).matches
        assert len(compiles) == 1


# -- graded inference ------------------------------------------------------------


def test_graded_inference_modus_ponens():
    report = graded_inference(parse_kb("1: a\n1: a -> b\n"),
                              GradeParams(1, 1, 1), parse_formula("b"),
                              JustificationMode.SCEPTICAL)
    assert report.holds
    assert report.premise_sets == (
        frozenset({parse_formula("a"), parse_formula("a -> b")}),)


def test_graded_inference_modes_differ_on_disputed_goals():
    kb = parse_kb(TWO_PS_BASE)
    goal = parse_formula("a")
    assert not graded_inference(kb, GradeParams(1, 1, 1), goal,
                                JustificationMode.SCEPTICAL).holds
    assert graded_inference(kb, GradeParams(1, 1, 1), goal,
                            JustificationMode.CREDULOUS).holds
    undisputed = parse_formula("!a | !b")
    assert graded_inference(kb, GradeParams(1, 1, 1), undisputed,
                            JustificationMode.SCEPTICAL).holds


def test_goal_atoms_outside_the_base_widen_the_tables():
    kb = parse_kb("1: a\n1: a -> b\n2: !b\n")
    params = GradeParams(1, 1, 1)
    for text, holds in (("b | c", True), ("c", False), ("c | !c", True),
                        ("a & c", False), ("c -> a", True)):
        goal = parse_formula(text)
        report = graded_inference(kb, params, goal,
                                  JustificationMode.SCEPTICAL)
        assert report.holds is holds, text
        assert [entails(s, goal) for s in report.premise_sets] == [
            oc.entails(list(s), goal) for s in report.premise_sets]
        assert all(oc.entails(list(s), goal) for s in report.premise_sets) \
            is holds


# -- rankings over defeat graphs -------------------------------------------------


def test_conflicting_base_ranks_the_b_side_above_the_a_side():
    graph = build_defeat_graph(parse_kb(CONFLICT_BASE))
    order = absolute_rank(graph.framework, Semantics.PREFERRED)
    assert order.equivalence_classes() == (
        ("A2", "A4", "A7"), ("A6",), ("A1",), ("A3", "A5"))
    for upper in ("A2", "A4", "A6", "A7"):
        for lower in ("A1", "A3", "A5"):
            assert order.strictly_above(upper, lower)


def test_demoted_base_ranks_in_three_classes():
    """Dropping !a to a weaker stratum removes its defeats; the premise
    arguments of the strong stratum rise above it, and the derived
    arguments form a third class incomparable with it."""
    graph = build_defeat_graph(parse_kb(DEMOTED_BASE))
    order = absolute_rank(graph.framework, Semantics.PREFERRED)
    assert order.equivalence_classes() == (
        ("A1", "A2", "A4"), ("A7",), ("A3", "A5", "A6"))
    assert order.compare("A1", "A7") is Relation.ABOVE
    assert order.compare("A7", "A3") is Relation.INCOMPARABLE
