import random

import pytest

import oracles as oc
from conftest import labels_attacks, seeded_corpus
from gradarg.errors import TooLargeError
from gradarg.fixtures import (defended_two_on_one, mutual_pair,
                              quality_precedence, self_contradiction,
                              shared_target_chain, single_chain, three_cycle,
                              two_on_one)
from gradarg.framework import ArgumentationFramework, disjoint_union
from gradarg.kernel import GradeParams, graded_defense, saturation_bound
from gradarg.ranking import (ArgumentPartialOrder, JustificationSignature,
                             Relation, _grid, _signatures, absolute_rank,
                             absolute_signature, contextual_equals_grounded,
                             contextual_rank, contextual_signature)
from gradarg.semantics import (JustificationMode, Semantics,
                               enumerate_extensions, justified)

ABSOLUTE_SEMANTICS = (Semantics.GROUNDED, Semantics.PREFERRED,
                      Semantics.STABLE)


def chain_pair() -> ArgumentationFramework:
    """Single chain next to the two-attackers-on-one graph."""
    return disjoint_union(single_chain(), two_on_one())


def attack_free(labels=("x", "y", "z")) -> ArgumentationFramework:
    return ArgumentationFramework(labels, [])


# -- the transpose ---------------------------------------------------------------


@pytest.mark.parametrize("width", [0, 1, 2, 5, 2000])
def test_signatures_transpose_bit_by_bit(width):
    """Bit p of argument i's signature is bit i of the mask of point p,
    on random masks, all-zero and all-one masks included."""
    rng = random.Random(width)
    fw = attack_free([f"a{i}" for i in range(width)])
    for points in (1, 2, 7, 49):
        masks = [rng.getrandbits(width) for _ in range(points)]
        masks[0], masks[-1] = 0, fw.full_mask
        sigs = _signatures(fw, masks, 3, "contextual")
        assert list(sigs) == list(fw.labels)
        for i, label in enumerate(fw.labels):
            expected = sum(1 << p for p, mask in enumerate(masks)
                           if mask >> i & 1)
            assert sigs[label].bits == expected
            assert (sigs[label].argument, sigs[label].bound,
                    sigs[label].kind) == (label, 3, "contextual")


# -- contextual signatures -------------------------------------------------------


def test_contextual_signature_separates_single_from_double_defense():
    sig = contextual_signature(chain_pair())
    # a2's attacker is itself attacked twice, a1's only once
    assert (1, 2) in sig["a2"].grades
    assert (1, 2) not in sig["a1"].grades
    assert sig["a2"].grades == frozenset(
        {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)})
    assert sig["b2"].grades == frozenset({(3, 1), (3, 2), (3, 3)})
    assert sig["a2"].kind == "contextual"
    assert sig["a2"].bound == 3


def test_contextual_signature_on_attack_free_graph():
    fw = attack_free()
    sig = contextual_signature(fw)
    assert all(s.grades == frozenset({(1, 1)}) and s.bound == 1
               for s in sig.values())


def test_contextual_signature_needs_strong_defense_for_weak_targets():
    sig = contextual_signature(defended_two_on_one())
    assert (3, 3) in sig["a3"].grades
    assert (2, 2) not in sig["a3"].grades


def test_contextual_signature_rejects_foreign_context():
    fw = three_cycle()
    other = two_on_one()
    with pytest.raises(ValueError, match="different framework"):
        contextual_signature(fw, other.empty_set())


def test_contextual_signature_matches_oracle():
    for fw in seeded_corpus(12, sizes=(1, 5), seed0=1500):
        labels, attacks = labels_attacks(fw)
        sig = contextual_signature(fw)
        want = oc.contextual_signature(labels, attacks)
        assert {lab: set(s.grades) for lab, s in sig.items()} == want
        start = fw.set_from_mask(fw.full_mask & 0b101)
        sig_x = contextual_signature(fw, start)
        want_x = oc.contextual_signature(labels, attacks,
                                         frozenset(start.labels))
        assert {lab: set(s.grades) for lab, s in sig_x.items()} == want_x


def test_contextual_signature_matches_oracle_on_mixed_columns():
    """Contexts that defend themselves at some but not all m of a column
    n: below the least such m the signature comes from the orbit, above
    it from the fixpoint walk, and both halves must match the oracle's
    orbit unions. Random contexts on small seeded graphs, self-attacks
    included; the test asserts that mixed columns occur whose walk
    covers at least two values of m (m0 below K)."""
    import random
    rng = random.Random(9300)
    corpus = list(seeded_corpus(40, sizes=(2, 7), edge_prob=0.3,
                                seed0=9200))
    assert any(src == dst for fw in corpus for src, dst in fw.attacks)
    mixed = 0
    for fw in corpus:
        labels, attacks = labels_attacks(fw)
        k = saturation_bound(fw)
        for _ in range(3):
            context = frozenset(lab for lab in labels if rng.random() < 0.5)
            defends = [[context <= oc.graded_defense(labels, attacks, m, n,
                                                     context)
                        for m in range(1, k + 1)] for n in range(1, k + 1)]
            mixed += sum(not column[0] and column[-2] for column in defends)
            sig = contextual_signature(fw, fw.set_of(context))
            want = oc.contextual_signature(labels, attacks, context)
            assert {lab: set(s.grades) for lab, s in sig.items()} == want
    assert mixed >= 50


# -- contextual order ------------------------------------------------------------


def test_contextual_rank_chain_fixture_is_a_strict_ladder():
    order = contextual_rank(chain_pair())
    assert order.equivalence_classes() == (
        ("c1", "c2", "d2"), ("a2",), ("a1",), ("b1",), ("b2",))
    assert order.compare("c1", "c2") is Relation.EQUIVALENT
    assert order.compare("c2", "d2") is Relation.EQUIVALENT
    assert order.strictly_above("c1", "a2")
    assert order.strictly_above("a2", "a1")
    assert order.strictly_above("b1", "b2")
    assert order.compare("b2", "b1") is Relation.BELOW
    assert order.hasse_edges() == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_contextual_rank_is_reflexive():
    order = contextual_rank(three_cycle())
    for lab in ("a", "b", "c"):
        assert order.compare(lab, lab) is Relation.EQUIVALENT


def test_contextual_rank_orders_across_components():
    order = contextual_rank(disjoint_union(single_chain(),
                                           defended_two_on_one()))
    assert order.compare("a1", "a3") is Relation.ABOVE


# -- absolute signatures ---------------------------------------------------------


def test_absolute_signature_downgrades_self_attackers():
    sig = absolute_signature(self_contradiction(), Semantics.PREFERRED)
    assert (2, 2, 2) in sig["a"].grades
    assert (2, 2, 2) not in sig["b"].grades
    assert sig["a"].kind == "absolute:preferred"


def test_absolute_signature_on_attack_free_graph():
    sig = absolute_signature(attack_free(), Semantics.STABLE)
    assert all(s.grades == frozenset({(1, 1, 1)}) for s in sig.values())


def test_absolute_signature_on_the_cycle_needs_tolerance():
    sig = absolute_signature(three_cycle(), Semantics.PREFERRED)
    for lab in ("a", "b", "c"):
        assert (2, 2, 1) in sig[lab].grades
        assert (1, 1, 1) not in sig[lab].grades


def test_absolute_signature_rejects_non_family_semantics():
    for semantics in (Semantics.ADMISSIBLE, Semantics.COMPLETE):
        with pytest.raises(ValueError, match="grounded, preferred, stable"):
            absolute_signature(three_cycle(), semantics)


def test_absolute_signature_respects_enumeration_cap():
    with pytest.raises(TooLargeError, match="enumeration cap 3"):
        absolute_signature(quality_precedence(), Semantics.PREFERRED,
                           max_args=3)


def test_absolute_signature_agrees_with_justified_sweep():
    """Dual route: the signature sweep must reproduce per-triple sceptical
    justification computed through the extension-family API."""
    for fw in (three_cycle(), two_on_one(), shared_target_chain()):
        k = saturation_bound(fw)
        for semantics in ABSOLUTE_SEMANTICS:
            sig = absolute_signature(fw, semantics)
            for l in range(1, k + 1):
                for m in range(1, k + 1):
                    for n in range(1, k + 1):
                        report = justified(fw, semantics, GradeParams(l, m, n),
                                           JustificationMode.SCEPTICAL)
                        inside = set(report.arguments.labels)
                        for lab in fw.labels:
                            assert ((l, m, n) in sig[lab].grades) == (
                                lab in inside)


def test_absolute_signature_matches_oracle():
    corpus = [*seeded_corpus(10, sizes=(2, 5), seed0=2200),
              *seeded_corpus(6, sizes=(4, 6), edge_prob=0.3, seed0=2300),
              self_contradiction()]
    assert sum(1 for fw in corpus
               if any(src == dst for src, dst in fw.attacks)) >= 5
    assert max(len(fw) for fw in corpus) == 6
    for fw in corpus:
        labels, attacks = labels_attacks(fw)
        for semantics in ABSOLUTE_SEMANTICS:
            sig = absolute_signature(fw, semantics)
            want = oc.absolute_signature(labels, attacks, semantics.value)
            assert {lab: set(s.grades) for lab, s in sig.items()} == want


def test_absolute_signature_walks_each_column_once(monkeypatch):
    """A sweep makes exactly K ``least_fixpoints`` walks, one per column
    n; the swapped-grade fixpoints come from those same columns."""
    import gradarg.ranking as ranking
    walks = []
    real = ranking.least_fixpoints
    monkeypatch.setattr(ranking, "least_fixpoints",
                        lambda *args: walks.append(args) or real(*args))
    for fw in [*seeded_corpus(6, sizes=(2, 6), edge_prob=0.3, seed0=2400),
               chain_pair()]:
        for semantics in ABSOLUTE_SEMANTICS:
            walks.clear()
            absolute_signature(fw, semantics)
            assert len(walks) == saturation_bound(fw)


# -- absolute order --------------------------------------------------------------


@pytest.mark.parametrize("bound", range(1, 8))
def test_existence_safe_cut_keeps_the_kernel_region(bound):
    """The order's shift arithmetic and the kernel's predicate state the
    same region: cutting a full signature keeps exactly the bits whose
    grade point is existence-safe."""
    kind = "absolute:grounded"
    full = JustificationSignature("a", (1 << bound ** 3) - 1, bound, kind)
    order = ArgumentPartialOrder(ArgumentationFramework(("a",), ()),
                                 {"a": full}, kind)
    assert order._existence_safe().signatures["a"].bits == sum(
        1 << i for i, point in enumerate(_grid(bound, 3))
        if GradeParams(*point).existence_safe)


def test_absolute_rank_never_lifts_the_self_attacker_target():
    order = absolute_rank(self_contradiction(), Semantics.PREFERRED)
    assert not order.at_least("b", "a")
    assert order.compare("a", "b") is Relation.ABOVE


def test_absolute_rank_leaves_quality_precedence_open():
    order = absolute_rank(quality_precedence(), Semantics.PREFERRED)
    assert order.compare("a", "b") is Relation.INCOMPARABLE


def test_absolute_rank_ties_unattacked_arguments():
    for semantics in ABSOLUTE_SEMANTICS:
        order = absolute_rank(two_on_one(), semantics)
        assert order.compare("c2", "d2") is Relation.EQUIVALENT


def test_absolute_rank_never_puts_sceptical_below_credulous():
    """Arbitration shape: where several preferred extensions exist, an
    argument in all of them never ranks strictly below one in just some.
    The fixture unions pin the shape (an undisputed component next to an
    even cycle); the random corpus adds unstructured instances."""
    pool = [disjoint_union(single_chain(), mutual_pair()),
            disjoint_union(two_on_one(), mutual_pair()),
            disjoint_union(defended_two_on_one(), mutual_pair())]
    pool.extend(seeded_corpus(60, sizes=(3, 7), edge_prob=0.28, seed0=3100))
    cases = 0
    for fw in pool:
        fam = enumerate_extensions(fw, Semantics.PREFERRED,
                                   GradeParams(1, 1, 1))
        if len(fam.extensions) < 2:
            continue
        sceptical = set(fw.labels)
        credulous: set = set()
        for ext in fam.extensions:
            sceptical &= set(ext.labels)
            credulous |= set(ext.labels)
        if not sceptical or credulous == sceptical:
            continue
        order = absolute_rank(fw, Semantics.PREFERRED)
        for s in sceptical:
            for c in credulous - sceptical:
                assert order.compare(s, c) is not Relation.BELOW
        cases += 1
    assert cases >= 4


# -- order laws and saturation ---------------------------------------------------


def test_signature_inclusion_is_a_partial_order():
    for fw in seeded_corpus(15, sizes=(1, 8), seed0=5000):
        for order in (contextual_rank(fw),
                      absolute_rank(fw, Semantics.GROUNDED)):
            labs = fw.labels
            for a in labs:
                assert order.at_least(a, a)
            for a in labs:
                for b in labs:
                    if order.at_least(a, b) and order.at_least(b, a):
                        assert (order.signatures[a].grades
                                == order.signatures[b].grades)
                    for c in labs:
                        if order.at_least(a, b) and order.at_least(b, c):
                            assert order.at_least(a, c)


def test_sweeping_past_the_saturation_bound_changes_nothing():
    """Grades beyond K = max in-degree + 1 repeat the K-row verdicts, so
    a wider sweep induces the same pairwise order."""
    for fw in (three_cycle(), two_on_one(), chain_pair()):
        k = saturation_bound(fw)
        wide: dict[str, set] = {lab: set() for lab in fw.labels}
        for m in range(1, k + 3):
            for n in range(1, k + 3):
                cur = fw.empty_set()
                seen = {cur.mask}
                union = cur.mask
                while True:
                    cur = graded_defense(fw, m, n, cur)
                    if cur.mask in seen:
                        break
                    seen.add(cur.mask)
                    union |= cur.mask
                for lab in fw.set_from_mask(union).labels:
                    wide[lab].add((m, n))
        narrow = contextual_signature(fw)
        for a in fw.labels:
            for b in fw.labels:
                assert (narrow[b].grades <= narrow[a].grades) == (
                    wide[b] <= wide[a])


def test_wider_absolute_sweep_induces_the_same_order():
    for fw in (three_cycle(), two_on_one()):
        k = saturation_bound(fw)
        wide: dict[str, set] = {lab: set() for lab in fw.labels}
        for l in range(1, k + 3):
            for m in range(1, k + 3):
                for n in range(1, k + 3):
                    report = justified(fw, Semantics.PREFERRED,
                                       GradeParams(l, m, n),
                                       JustificationMode.SCEPTICAL)
                    for lab in report.arguments.labels:
                        wide[lab].add((l, m, n))
        narrow = absolute_signature(fw, Semantics.PREFERRED)
        for a in fw.labels:
            for b in fw.labels:
                assert (narrow[b].grades <= narrow[a].grades) == (
                    wide[b] <= wide[a])


# -- the contextual/grounded bridge ----------------------------------------------


def test_bridge_on_fixtures():
    assert contextual_equals_grounded(chain_pair()) == (True, None)
    assert contextual_equals_grounded(attack_free()) == (True, None)


def test_bridge_on_random_corpus():
    for fw in seeded_corpus(50, sizes=(1, 7), seed0=4000):
        ok, pair = contextual_equals_grounded(fw)
        assert ok, pair


def test_bridge_survives_a_separation_outside_the_safe_region():
    """a0 and a1 agree at every (m, n) with n >= m and are separated
    only at (2, 1), so a bridge that skipped the n < m half of the
    grade space on either side would report a mismatch here."""
    fw = ArgumentationFramework(
        ("a0", "a1", "a2", "a3"),
        (("a0", "a0"), ("a2", "a0"), ("a2", "a1"), ("a3", "a1")))
    sig = contextual_signature(fw)
    only_low_n = {(m, n) for (m, n) in sig["a0"].grades - sig["a1"].grades}
    assert only_low_n == {(2, 1)}
    assert contextual_equals_grounded(fw) == (True, None)
    grounded = absolute_rank(fw, Semantics.GROUNDED)
    assert grounded.strictly_above("a0", "a1")
    assert contextual_rank(fw).strictly_above("a0", "a1")


# -- rendering -------------------------------------------------------------------


def test_hasse_edges_are_cover_relations():
    for fw in (chain_pair(), quality_precedence(), three_cycle()):
        order = contextual_rank(fw)
        classes = order.equivalence_classes()
        reps = [c[0] for c in classes]
        edges = order.hasse_edges()
        for i, j in edges:
            assert order.strictly_above(reps[i], reps[j])
            assert not any(order.strictly_above(reps[i], reps[k])
                           and order.strictly_above(reps[k], reps[j])
                           for k in range(len(reps)))
        for i in range(len(reps)):
            for j in range(len(reps)):
                if order.strictly_above(reps[i], reps[j]) and not any(
                        order.strictly_above(reps[i], reps[k])
                        and order.strictly_above(reps[k], reps[j])
                        for k in range(len(reps))):
                    assert (i, j) in edges


def _orders(fw: ArgumentationFramework):
    """The contextual orders from the empty and from a two-argument
    context, and the absolute order under each semantics."""
    yield contextual_rank(fw)
    yield contextual_rank(fw, fw.set_from_mask(fw.full_mask & 0b101))
    for semantics in ABSOLUTE_SEMANTICS:
        yield absolute_rank(fw, semantics)


def test_classes_and_hasse_edges_match_the_cover_loop():
    """Classes grouped by signature int and bit-row Hasse edges against
    the oracle's frozenset grouping and cover loop. The corpus must hold
    orders with a comparable pair that is no cover, so that removing the
    pairs below a cover matters."""
    corpus = [chain_pair(), quality_precedence(), three_cycle(),
              *seeded_corpus(36, sizes=(1, 7), edge_prob=0.25, seed0=6100)]
    transitive = 0
    for fw in corpus:
        for order in _orders(fw):
            grades = {lab: sig.grades for lab, sig in order.signatures.items()}
            classes = oc.rank_classes(fw.labels, grades)
            edges = oc.hasse_edges(classes, grades)
            assert order.equivalence_classes() == classes
            assert order.hasse_edges() == edges
            sigs = [grades[c[0]] for c in classes]
            strict = sum(b < a for a in sigs for b in sigs)
            transitive += strict > len(edges)
    assert transitive >= 20


def test_grades_round_trip_through_the_signature_int():
    """Each argument's decoded grade points, re-encoded by the bit formula
    ((l-1)K + (m-1))K + (n-1), give back its int; every point lies in the
    [1, K] grid, and equal grade sets are equal ints."""
    for fw in seeded_corpus(24, sizes=(1, 7), edge_prob=0.3, seed0=6400):
        k = saturation_bound(fw)
        for order in _orders(fw):
            by_grades = {}
            for sig in order.signatures.values():
                assert sig.bound == k
                bits = 0
                for point in sig.grades:
                    assert all(1 <= g <= k for g in point)
                    index = 0
                    for g in point:
                        index = index * k + g - 1
                    bits |= 1 << index
                assert bits == sig.bits
                assert by_grades.setdefault(sig.grades, sig.bits) == sig.bits


def test_dot_output_frozen_for_the_chain_fixture():
    assert contextual_rank(chain_pair()).to_dot() == (
        "digraph ranking {\n"
        "  rankdir=TB;\n"
        "  node [shape=box];\n"
        '  c0 [label="c1, c2, d2"];\n'
        '  c1 [label="a2"];\n'
        '  c2 [label="a1"];\n'
        '  c3 [label="b1"];\n'
        '  c4 [label="b2"];\n'
        "  c0 -> c1;\n"
        "  c1 -> c2;\n"
        "  c2 -> c3;\n"
        "  c3 -> c4;\n"
        "}\n")


def test_dot_escapes_quotes_and_backslashes_in_labels():
    """A quote or backslash in a label is escaped, so the label string
    ends where DOT reads its end; plain labels come out as before."""
    fw = ArgumentationFramework(('a"x', "b\\", "c"), [("c", 'a"x')])
    assert contextual_rank(fw).to_dot() == (
        "digraph ranking {\n"
        "  rankdir=TB;\n"
        "  node [shape=box];\n"
        '  c0 [label="b\\\\, c"];\n'
        '  c1 [label="a\\"x"];\n'
        "  c0 -> c1;\n"
        "}\n")
    plain = ArgumentationFramework(("ax", "b", "c"), [("c", "ax")])
    assert contextual_rank(plain).to_dot() == (
        "digraph ranking {\n"
        "  rankdir=TB;\n"
        "  node [shape=box];\n"
        '  c0 [label="b, c"];\n'
        '  c1 [label="ax"];\n'
        "  c0 -> c1;\n"
        "}\n")
