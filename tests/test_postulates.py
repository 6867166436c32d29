import random
from dataclasses import replace
from functools import lru_cache

import pytest

import oracles as oc
from conftest import labels_attacks, seeded_corpus
from gradarg import fixtures, postulates, ranking
from gradarg.framework import (ArgumentationFramework, connected_components,
                               disjoint_union, random_framework, relabel)
from gradarg.postulates import (CheckResult, EXPECTED_BATTERY,
                                RANKED_SEMANTICS,
                                check_abstraction, check_attack_path_addition,
                                check_attack_path_increase,
                                check_cardinality_precedence,
                                check_counter_transitivity,
                                check_defense_path_increase,
                                check_defense_precedence, check_independence,
                                check_named_counterexamples,
                                check_quality_precedence,
                                check_self_contradiction,
                                check_strict_independence,
                                check_unattacked_equivalence,
                                check_void_precedence, corpus_checks,
                                named_counterexamples_match)
from gradarg.ranking import (ArgumentPartialOrder, JustificationSignature,
                            Relation, absolute_rank)
from gradarg.semantics import Semantics

BATTERY_WITNESSES = {
    "strict independence": (
        ("b", "c"), Relation.EQUIVALENT,
        "b is strictly above c in its component but not in the whole "
        "framework under stable"),
    "void precedence": (
        ("b", "a"), Relation.EQUIVALENT,
        "unattacked b is not strictly above a under stable"),
    "self contradiction": (
        ("a", "b"), Relation.ABOVE,
        "b is not strictly above the self-attacker a"),
    "cardinality precedence": (
        ("a3", "a4"), Relation.INCOMPARABLE,
        "a3 has fewer attackers than a4 but is not strictly above it"),
    "quality precedence": (
        ("a", "b"), Relation.INCOMPARABLE,
        "an attacker of b beats every attacker of a, yet a is not strictly "
        "above b"),
    "defense precedence": (
        ("x", "r"), Relation.EQUIVALENT,
        "x is defended and r is not, with equal attack counts, yet x is not "
        "strictly above r"),
    "strict counter-transitivity": (
        ("x", "r"), Relation.EQUIVALENT,
        "attackers of r dominate those of x, yet x is not ranked "
        "accordingly"),
    "attack path addition": (
        ("x", "x_b"), Relation.EQUIVALENT,
        "adding a length-1 path to x does not strictly degrade it under "
        "stable"),
    "attack path increase": (
        ("y", "y_b"), Relation.EQUIVALENT,
        "growing the path from 1 to 3 leaves the targets EQUIVALENT under "
        "grounded"),
    "defense path increase": (
        ("y", "y_b"), Relation.EQUIVALENT,
        "growing the path from 2 to 4 leaves the targets EQUIVALENT under "
        "grounded"),
}


# -- the fixed battery -----------------------------------------------------------


def test_battery_matches_the_expected_table():
    ok, verdicts = named_counterexamples_match()
    assert ok
    assert len(verdicts) == len(EXPECTED_BATTERY) == 13
    for verdict, (name, sems, result) in zip(verdicts, EXPECTED_BATTERY):
        assert verdict.postulate == name
        assert verdict.semantics == sems
        assert verdict.result is result


def test_battery_witness_pairs_are_pinned():
    for verdict in check_named_counterexamples():
        if verdict.result is CheckResult.HOLDS:
            assert verdict.witness is None
            continue
        pair, relation, detail = BATTERY_WITNESSES[verdict.postulate]
        assert verdict.witness.pair == pair
        assert verdict.witness.relation is relation
        assert verdict.witness.detail == detail


def _random_graph_verdicts():
    for i in range(30):
        fw = random_framework(3 + i % 4, 0.3, 900 + i)
        yield from (check_self_contradiction(fw),
                    check_cardinality_precedence(fw),
                    check_quality_precedence(fw),
                    check_defense_precedence(fw),
                    check_counter_transitivity(fw),
                    check_void_precedence(fw, Semantics.STABLE),
                    check_strict_independence(fw),
                    check_unattacked_equivalence(fw))


def _label_sensitive_rank(fw, semantics):
    """The true ranking of a framework with an argument labelled a1, and
    all arguments alike otherwise."""
    if "a1" in fw.labels:
        return absolute_rank(fw, semantics)
    flat = {lab: JustificationSignature(lab, 0, 1, "flat")
            for lab in fw.labels}
    return ArgumentPartialOrder(fw, flat, "flat")


def _label_sensitive_abstraction(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(postulates, "absolute_rank", _label_sensitive_rank)
        return check_abstraction(fixtures.single_chain(),
                                 {"a1": "x", "b1": "y", "c1": "z"})


def test_violated_witnesses_reverify_through_absolute_rank(monkeypatch):
    """A Violated verdict must be checkable from its witness alone."""
    violated = [v for v in (*check_named_counterexamples(),
                            *_random_graph_verdicts(),
                            _label_sensitive_abstraction(monkeypatch))
                if v.result is CheckResult.VIOLATED]
    assert len(violated) == 10 + 49 + 1
    assert violated[-1].postulate == "abstraction"
    for verdict in violated:
        w = verdict.witness
        order = absolute_rank(w.framework, w.semantics)
        assert order.compare(*w.pair) is w.relation
        assert w.detail


def test_labels_with_braces_pass_through_witness_details():
    fw = ArgumentationFramework(
        ("{a}", "b{0}", "{}"),
        [("{a}", "b{0}"), ("b{0}", "b{0}"), ("{}", "{a}")])
    verdict = check_self_contradiction(fw)
    assert verdict.witness.pair == ("b{0}", "{a}")
    assert verdict.witness.detail == (
        "{a} is not strictly above the self-attacker b{0}")


def test_verdict_string_form():
    verdicts = check_named_counterexamples()
    assert str(verdicts[0]) == (
        "abstraction [grounded, preferred, stable]: Holds")
    violated = next(v for v in verdicts
                    if v.result is CheckResult.VIOLATED)
    assert "Violated (" in str(violated)


# -- individual checkers ---------------------------------------------------------


def test_abstraction_on_rotation_and_identity():
    fw = fixtures.three_cycle()
    rotation = {"a": "b", "b": "c", "c": "a"}
    assert check_abstraction(fw, rotation).result is CheckResult.HOLDS
    identity = {lab: lab for lab in fw.labels}
    assert check_abstraction(fw, identity).result is CheckResult.HOLDS


def _biased_signature(monkeypatch) -> None:
    """A ranking that favours index 0, so abstraction fails."""
    real = ranking.absolute_signature

    def biased(fw, semantics, max_args=None):
        sigs = real(fw, semantics, max_args)
        first = sigs[fw.labels[0]]
        sigs[first.argument] = replace(first, bits=first.bits | 1)
        return sigs

    monkeypatch.setattr(ranking, "absolute_signature", biased)


def test_abstraction_catches_a_ranking_that_reads_indices(monkeypatch):
    """The renamed copy lists its arguments in sorted label order, so a
    ranking that treats index 0 specially breaks abstraction."""
    _biased_signature(monkeypatch)
    verdicts = corpus_checks(30, 0)
    names = [v.postulate for v in verdicts]
    assert len(names) == len(set(names))
    [abstraction] = [v for v in verdicts if v.postulate == "abstraction"]
    assert abstraction.result is CheckResult.VIOLATED


def test_abstraction_witness_names_the_original_pair(monkeypatch):
    verdict = _label_sensitive_abstraction(monkeypatch)
    assert verdict.result is CheckResult.VIOLATED
    w = verdict.witness
    assert w.framework == fixtures.single_chain()
    assert w.pair == ("a1", "b1")
    assert w.relation is absolute_rank(w.framework, w.semantics).compare(
        "a1", "b1")
    assert w.detail == (
        f"a1 vs b1 is {w.relation.name} but the renamed pair is not under "
        f"{w.semantics.value}")


def _oracle_relation(sig, x, y):
    above, below = sig[y] <= sig[x], sig[x] <= sig[y]
    if above and below:
        return Relation.EQUIVALENT
    if above or below:
        return Relation.ABOVE if above else Relation.BELOW
    return Relation.INCOMPARABLE


@lru_cache(maxsize=None)
def _oracle_signature(labels, attacks, semantics):
    return oc.absolute_signature(labels, attacks, semantics.value)


def _oracle_independence(fw, strict):
    """check_independence rebuilt from the oracle's grade sets, each
    cut to the triples with l >= m <= n: (result, semantics, pair,
    relation in the uncut whole order)."""
    def ranks(sig, x, y):
        return sig[y] <= sig[x] and not (strict and sig[x] <= sig[y])

    def cut(sig):
        return {lab: {(l, m, n) for l, m, n in grades if l >= m <= n}
                for lab, grades in sig.items()}

    for sem in RANKED_SEMANTICS:
        full = _oracle_signature(*labels_attacks(fw), sem)
        whole = cut(full)
        for component in connected_components(fw):
            part = cut(_oracle_signature(*labels_attacks(component), sem))
            for x in component.labels:
                for y in component.labels:
                    if (x != y and ranks(part, x, y)
                            and not ranks(whole, x, y)):
                        return (CheckResult.VIOLATED, sem, (x, y),
                                _oracle_relation(full, x, y))
    return CheckResult.HOLDS, None, None, None


def _seeded_union(seed):
    """The disjoint union of two random frameworks of 1-4 arguments."""
    rng = random.Random(seed)
    a, b = (random_framework(rng.randint(1, 4),
                             rng.choice((0.2, 0.35, 0.5)),
                             rng.randrange(10 ** 6)) for _ in range(2))
    return disjoint_union(a, relabel(b, {x: "b" + x for x in b.labels}))


@pytest.mark.parametrize("strict", [False, True])
def test_independence_matches_the_oracle(strict):
    # on union 695 the verdict changes if the cut keeps n < m, and on
    # union 713 if it keeps l < m
    corpus = [*seeded_corpus(14, sizes=(3, 6), edge_prob=0.2, seed0=7100),
              fixtures.self_loop_and_edge(), _seeded_union(695),
              _seeded_union(713)]
    assert sum(len(connected_components(fw)) > 1 for fw in corpus) >= 8
    results = []
    for fw in corpus:
        verdict = check_independence(fw, strict)
        w = verdict.witness
        got = (verdict.result, *((None,) * 3 if w is None
                                 else (w.semantics, w.pair, w.relation)))
        assert got == _oracle_independence(fw, strict)
        results.append(verdict.result)
    if strict:
        assert set(results) == {CheckResult.HOLDS, CheckResult.VIOLATED}


def test_independence_non_strict_holds_where_strict_fails():
    fw = fixtures.self_loop_and_edge()
    assert check_independence(fw).result is CheckResult.HOLDS
    strict = check_strict_independence(fw)
    assert strict.result is CheckResult.VIOLATED
    assert strict.semantics == (Semantics.STABLE,)
    assert strict.witness.pair == ("b", "c")
    assert "in its component but not" in strict.witness.detail


def test_independence_ranks_no_single_argument_component(monkeypatch):
    """A one-argument component holds no pair, so it is not ranked."""
    ranked = []
    real = postulates.absolute_rank

    def counting(fw, semantics):
        ranked.append(fw.labels)
        return real(fw, semantics)

    monkeypatch.setattr(postulates, "absolute_rank", counting)
    fw = fixtures.self_loop_and_edge()
    assert check_independence(fw).result is CheckResult.HOLDS
    assert ranked == [("a", "b", "c"), ("b", "c")] * 3


def test_void_precedence_verdicts():
    assert check_void_precedence(
        fixtures.single_chain()).result is CheckResult.HOLDS
    stable = check_void_precedence(fixtures.self_loop_and_edge(),
                                   Semantics.STABLE)
    assert stable.result is CheckResult.VIOLATED
    assert stable.witness.pair == ("b", "a")
    attack_free = ArgumentationFramework(("x", "y"), [])
    assert check_void_precedence(attack_free).result is CheckResult.HOLDS


def test_self_contradiction_counterexample():
    verdict = check_self_contradiction(fixtures.self_contradiction())
    assert verdict.result is CheckResult.VIOLATED
    assert verdict.witness.pair == ("a", "b")
    # the graded order actually inverts the postulate: the self-attacker
    # with weak attackers outranks the target of two direct attacks
    assert verdict.witness.relation is Relation.ABOVE


def test_cardinality_precedence_counterexample():
    graph = disjoint_union(fixtures.defended_two_on_one(),
                           fixtures.three_on_one_mixed_defense())
    verdict = check_cardinality_precedence(graph)
    assert verdict.result is CheckResult.VIOLATED
    assert verdict.witness.pair == ("a3", "a4")
    assert verdict.witness.relation is Relation.INCOMPARABLE


def test_quality_precedence_counterexample():
    verdict = check_quality_precedence(fixtures.quality_precedence())
    assert verdict.result is CheckResult.VIOLATED
    assert verdict.witness.pair == ("a", "b")
    assert verdict.witness.relation is Relation.INCOMPARABLE


def test_defense_precedence_and_counter_transitivity():
    fw = fixtures.depth_chain_and_root_attack()
    dp = check_defense_precedence(fw)
    assert dp.result is CheckResult.VIOLATED
    assert dp.witness.pair == ("x", "r")
    sct = check_counter_transitivity(fw)
    assert sct.postulate == "strict counter-transitivity"
    assert sct.result is CheckResult.VIOLATED
    assert sct.witness.pair == ("x", "r")
    # the non-strict form asks only for >= and survives both fixtures
    assert check_counter_transitivity(
        fw, strict=False).result is CheckResult.HOLDS
    assert check_counter_transitivity(
        fixtures.single_chain(), strict=False).result is CheckResult.HOLDS


def test_path_addition_and_increase_checkers():
    base = disjoint_union(fixtures.three_cycle(), fixtures.isolated_node("x"))
    addition = check_attack_path_addition(base, "x")
    assert addition.result is CheckResult.VIOLATED
    assert addition.witness.pair == ("x", "x_b")
    assert check_attack_path_increase().result is CheckResult.VIOLATED
    assert check_defense_path_increase().result is CheckResult.VIOLATED
    with pytest.raises(ValueError, match="odd length"):
        check_attack_path_increase(length=2)
    with pytest.raises(ValueError, match="even length"):
        check_defense_path_increase(length=3)


def test_path_addition_copies_under_a_fresh_suffix():
    """A base label that already ends in _b would clash with the copy's
    a_b, so the copy takes _bb, and the witness pair names the copy's
    target inside the ranked union."""
    fw = ArgumentationFramework(("a", "a_b"), [("a_b", "a")])
    assert check_attack_path_addition(fw, "a").result is CheckResult.HOLDS
    defense = check_attack_path_addition(fw, "a", length=2)
    assert defense.result is CheckResult.VIOLATED
    w = defense.witness
    assert w.pair == ("a", "a_bb")
    assert w.framework.labels == ("a", "a_b", "a_bb", "a_b_bb", "w1_bb",
                                  "w2_bb")
    assert absolute_rank(w.framework, w.semantics).compare(*w.pair) \
        is w.relation


def test_path_addition_grafts_under_a_fresh_prefix():
    """A base label that starts with w would clash with the chain's w1,
    so the chain takes ww."""
    fw = ArgumentationFramework(("a", "w1"), [("w1", "a")])
    defense = check_attack_path_addition(fw, "a", length=2)
    assert defense.result is CheckResult.VIOLATED
    assert defense.witness.framework.labels == ("a", "w1", "a_b", "w1_b",
                                                "ww1_b", "ww2_b")


def test_unattacked_equivalence_checker():
    assert check_unattacked_equivalence(
        fixtures.two_on_one()).result is CheckResult.HOLDS
    assert check_unattacked_equivalence(
        fixtures.quality_precedence()).result is CheckResult.HOLDS


# -- the random corpus -----------------------------------------------------------


def test_corpus_checks_hold_universally():
    verdicts = corpus_checks(50, seed=6000)
    names = {(v.postulate, v.semantics) for v in verdicts}
    assert names == {
        ("abstraction", (Semantics.GROUNDED, Semantics.PREFERRED,
                         Semantics.STABLE)),
        ("independence", (Semantics.GROUNDED, Semantics.PREFERRED,
                          Semantics.STABLE)),
        ("void precedence", (Semantics.GROUNDED, Semantics.PREFERRED)),
        ("unattacked equivalence", (Semantics.GROUNDED, Semantics.PREFERRED,
                                    Semantics.STABLE)),
    }
    assert all(v.result is CheckResult.HOLDS for v in verdicts)


def test_corpus_checks_are_deterministic():
    assert corpus_checks(8, seed=31) == corpus_checks(8, seed=31)


# -- the ranking memo ------------------------------------------------------------


def _count_signatures(monkeypatch) -> list:
    """Record the (framework, semantics) of every absolute sweep."""
    swept = []
    real = ranking.absolute_signature

    def counting(fw, semantics, max_args=None):
        swept.append((fw, semantics))
        return real(fw, semantics, max_args)

    monkeypatch.setattr(ranking, "absolute_signature", counting)
    return swept


def _folded_without_memo(count, seed):
    """corpus_checks rebuilt from its documented corpus and standalone
    checker calls, which open no memo, folded by its rule: the first
    verdict of each postulate, unless a later one is its first
    violation."""
    found = {}
    for i in range(count):
        fw = random_framework(3 + i % 4, 0.25, seed + i)
        shuffled = list(fw.labels)
        random.Random((seed + i) * 7919).shuffle(shuffled)
        permutation = dict(zip(fw.labels, shuffled))
        for verdict in (check_abstraction(fw, permutation),
                        check_independence(fw), check_void_precedence(fw),
                        check_unattacked_equivalence(fw)):
            current = found.get(verdict.postulate)
            if current is None or (current.result is CheckResult.HOLDS
                                   and verdict.result is CheckResult.VIOLATED):
                found[verdict.postulate] = verdict
    return tuple(found.values())


@pytest.mark.parametrize("count", [10, 30])
def test_corpus_checks_sweep_each_framework_once_per_semantics(count,
                                                               monkeypatch):
    """Within one call each (framework, semantics) is swept once; the
    same checks made without the memo sweep the same pairs, most of them
    several times over."""
    swept = _count_signatures(monkeypatch)
    corpus_checks(count, 0)
    memoised = list(swept)
    swept.clear()
    _folded_without_memo(count, 0)
    assert len(memoised) == len(set(memoised)) == len(set(swept))
    assert set(memoised) == set(swept)
    assert len(swept) > 2 * len(memoised)


def test_the_battery_sweeps_each_framework_once_per_semantics(monkeypatch):
    swept = _count_signatures(monkeypatch)
    named_counterexamples_match()
    memoised = list(swept)
    swept.clear()
    check_named_counterexamples()
    assert len(memoised) == len(set(memoised)) == len(set(swept))
    assert len(swept) > len(memoised)


@pytest.mark.parametrize("biased", [False, True])
@pytest.mark.parametrize("count, seed", [(10, 0), (30, 0), (12, 77),
                                         (25, 4100)])
def test_corpus_checks_match_the_checks_without_memo(count, seed, biased,
                                                     monkeypatch):
    """Verdicts and witnesses, also under a ranking that violates
    abstraction, so that a witness is compared too."""
    if biased:
        _biased_signature(monkeypatch)
    verdicts = corpus_checks(count, seed)
    assert verdicts == _folded_without_memo(count, seed)
    assert any(v.witness is not None for v in verdicts) is biased


def test_no_memo_outlives_its_call(monkeypatch):
    """A call after an unpatched one still sees a patched ranking, and
    no memo is left open."""
    assert all(v.result is CheckResult.HOLDS for v in corpus_checks(30, 0))
    named_counterexamples_match()
    assert postulates._MEMO.get() is None
    _biased_signature(monkeypatch)
    [abstraction] = [v for v in corpus_checks(30, 0)
                     if v.postulate == "abstraction"]
    assert abstraction.result is CheckResult.VIOLATED
