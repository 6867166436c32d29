import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from conftest import framework_and_subset, frameworks, labels_attacks, seeded_corpus
from gradarg.errors import NotExpandableError
from gradarg.fixtures import (defended_two_on_one, isolated_node, mutual_pair,
                              shared_target_chain, single_chain, three_cycle,
                              two_on_one)
from gradarg.framework import ArgumentationFramework, random_framework
from gradarg.kernel import (DefenseGrade, GradeOrdering, GradeParams,
                            IterationStream, compare_grades, defense_mask,
                            defense_orbit, gfp_from, graded_defense,
                            graded_neutrality, least_fixpoints, lfp_from,
                            neutrality_mask, saturation_bound,
                            unattacked_closure)
from gradarg.semantics import is_lmn_admissible

grades = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
    lambda t: DefenseGrade(*t))


def _labels(argset) -> set[str]:
    return set(argset.labels)


# -- parameter containers ------------------------------------------------------


def test_grade_params_validation():
    with pytest.raises(ValueError):
        GradeParams(0, 1, 1)
    with pytest.raises(ValueError):
        DefenseGrade(1, 0)


def test_existence_safe_region():
    assert GradeParams(1, 1, 1).existence_safe
    assert GradeParams(3, 2, 2).existence_safe
    assert not GradeParams(1, 2, 2).existence_safe   # l < m
    assert not GradeParams(2, 2, 1).existence_safe   # n < m


# -- graded neutrality ----------------------------------------------------------


def test_neutrality_mutual_pair_full_set():
    fw = mutual_pair()
    assert _labels(graded_neutrality(fw, 1, fw.full_set())) == set()


def test_neutrality_of_empty_set_is_everything():
    for fw in (three_cycle(), shared_target_chain(), isolated_node()):
        for l in (1, 2, 5):
            assert graded_neutrality(fw, l, fw.empty_set()) == fw.full_set()


def test_neutrality_tolerance_two_on_shared_target():
    fw = shared_target_chain()
    x = fw.set_of(["a", "b"])
    assert _labels(graded_neutrality(fw, 2, x)) == {"a", "b", "d", "e"}


def test_neutrality_rejects_foreign_set_and_bad_l():
    fw = three_cycle()
    with pytest.raises(ValueError):
        graded_neutrality(fw, 0, fw.empty_set())
    with pytest.raises(ValueError):
        graded_neutrality(fw, 1, mutual_pair().empty_set())


# -- graded defense --------------------------------------------------------------


def test_defense_three_cycle_tolerant():
    fw = three_cycle()
    assert graded_defense(fw, 2, 1, fw.empty_set()) == fw.full_set()


def test_defense_dung_case_shared_target():
    fw = shared_target_chain()
    assert _labels(graded_defense(fw, 1, 1, fw.set_of(["a"]))) == {"a", "d"}


def test_defense_needs_three_counterattacks():
    fw = two_on_one()
    x = fw.set_of(["d2", "c2", "a2"])
    assert _labels(graded_defense(fw, 1, 3, x)) == {"c2", "d2"}


def test_defense_threshold_above_indegree_accepts_all():
    for fw in (three_cycle(), two_on_one(), shared_target_chain()):
        m = fw.max_in_degree + 1
        for n in (1, 2):
            assert graded_defense(fw, m, n, fw.empty_set()) == fw.full_set()


def test_defense_rejects_foreign_set_and_bad_grade():
    fw = three_cycle()
    with pytest.raises(ValueError):
        graded_defense(fw, 0, 1, fw.empty_set())
    with pytest.raises(ValueError):
        graded_defense(fw, 1, 0, fw.empty_set())
    with pytest.raises(ValueError):
        graded_defense(fw, 1, 1, mutual_pair().empty_set())


# -- grade comparison --------------------------------------------------------------


def test_compare_grades_examples():
    assert compare_grades(DefenseGrade(1, 1),
                          DefenseGrade(2, 1)) is GradeOrdering.STRONGER
    assert compare_grades(DefenseGrade(2, 1),
                          DefenseGrade(1, 1)) is GradeOrdering.WEAKER
    assert compare_grades(DefenseGrade(1, 1),
                          DefenseGrade(2, 2)) is GradeOrdering.INCOMPARABLE
    assert compare_grades(DefenseGrade(3, 2),
                          DefenseGrade(3, 2)) is GradeOrdering.EQUAL


@given(grades, grades)
def test_compare_grades_is_antisymmetric(g1, g2):
    r12, r21 = compare_grades(g1, g2), compare_grades(g2, g1)
    flips = {GradeOrdering.STRONGER: GradeOrdering.WEAKER,
             GradeOrdering.WEAKER: GradeOrdering.STRONGER,
             GradeOrdering.EQUAL: GradeOrdering.EQUAL,
             GradeOrdering.INCOMPARABLE: GradeOrdering.INCOMPARABLE}
    assert r21 is flips[r12]
    assert (r12 is GradeOrdering.EQUAL) == (g1 == g2)


@given(grades, grades, grades)
def test_compare_grades_is_transitive(g1, g2, g3):
    strong = {GradeOrdering.STRONGER, GradeOrdering.EQUAL}
    if compare_grades(g1, g2) in strong and compare_grades(g2, g3) in strong:
        assert compare_grades(g1, g3) in strong


# -- fixpoint streams -----------------------------------------------------------------


def test_lfp_three_cycle_tolerant_stages():
    fw = three_cycle()
    stream = lfp_from(fw, 2, 1, fw.empty_set())
    assert [_labels(s) for s in stream.stages] == [
        set(), {"a", "b", "c"}, {"a", "b", "c"}]
    assert stream.limit == fw.full_set()
    assert stream.stabilized_at == 1


def test_lfp_shared_target_from_a():
    fw = shared_target_chain()
    stream = lfp_from(fw, 1, 1, fw.set_of(["a"]))
    assert [_labels(s) for s in stream.stages] == [
        {"a"}, {"a", "d"}, {"a", "d"}]
    assert _labels(stream.limit) == {"a", "d"}


def test_lfp_defended_two_on_one_reaches_everything():
    fw = defended_two_on_one()
    stream = lfp_from(fw, 2, 1, fw.empty_set())
    assert stream.limit == fw.full_set()
    assert _labels(stream.stages[1]) >= {"b3", "c3", "d3", "e3"}
    assert stream.stabilized_at <= 2


def test_lfp_rejects_non_self_defending_start():
    fw = three_cycle()
    with pytest.raises(NotExpandableError):
        lfp_from(fw, 1, 1, fw.set_of(["a"]))


def test_gfp_shared_target_from_a():
    fw = shared_target_chain()
    stream = gfp_from(fw, 1, 1, fw.set_of(["a"]))
    assert [_labels(s) for s in stream.stages] == [
        {"a", "d", "e"}, {"a", "d"}, {"a", "d"}]
    assert _labels(stream.limit) == {"a", "d"}


def test_gfp_shared_target_from_empty():
    fw = shared_target_chain()
    assert gfp_from(fw, 1, 1, fw.empty_set()).limit == fw.full_set()


def test_gfp_three_cycle_from_empty():
    fw = three_cycle()
    assert gfp_from(fw, 1, 1, fw.empty_set()).limit == fw.full_set()


def test_gfp_rejects_non_self_defending_start():
    fw = three_cycle()
    with pytest.raises(NotExpandableError):
        gfp_from(fw, 1, 1, fw.set_of(["a"]))


def test_gfp_records_swapped_grade():
    fw = shared_target_chain()
    stream = gfp_from(fw, 1, 2, fw.empty_set())
    assert stream.grade == DefenseGrade(2, 1)
    assert lfp_from(fw, 1, 2, fw.empty_set()).grade == DefenseGrade(1, 2)


# -- saturation and the unattacked core -----------------------------------------------


def test_saturation_bound_examples():
    assert saturation_bound(three_cycle()) == 2
    assert saturation_bound(two_on_one()) == 3
    assert saturation_bound(isolated_node()) == 1
    assert saturation_bound(ArgumentationFramework(["a", "b"], [])) == 1


def test_unattacked_closure_examples():
    assert _labels(unattacked_closure(defended_two_on_one())) == {"d3", "e3"}
    assert unattacked_closure(three_cycle()) == three_cycle().empty_set()
    fw = ArgumentationFramework(["a", "b"], [])
    assert unattacked_closure(fw) == fw.full_set()


@settings(max_examples=60)
@given(frameworks(max_args=6))
def test_saturation_bound_contract(fw):
    k = saturation_bound(fw)
    for mask in range(1 << len(fw)):
        x = fw.set_from_mask(mask)
        base_n = graded_neutrality(fw, k, x)
        assert graded_neutrality(fw, k + 1, x) == base_n
        assert graded_neutrality(fw, k + 3, x) == base_n
        for m in (1, 2, k):
            assert (graded_defense(fw, m, k, x)
                    == graded_defense(fw, m, k + 2, x))
        for n in (1, 2, k):
            assert (graded_defense(fw, k, n, x)
                    == graded_defense(fw, k + 2, n, x))


# -- fixpoint columns against the orbit ----------------------------------------------


@pytest.mark.parametrize("density", [0.1, 0.25, 0.5, 0.8])
def test_fixpoint_columns_match_the_orbit(density):
    """Each column walk against ``defense_orbit`` at every (m, n) in
    [1, K]^2, on seeded graphs of 0-12 arguments that draw self-attacks
    like any other pair: the least fixpoints from the empty set,
    single-point ranges, the greatest fixpoint as the m-neutral set of
    the least fixpoint at the swapped grade (n, m), and the least
    fixpoints containing a random start from the first m at which it
    defends itself. Up to six arguments the least fixpoints are also
    held to the oracle's own iteration, and the greatest to the union of
    every set inside its own defense (Knaster-Tarski)."""
    import random
    rng = random.Random(9100)
    corpus = [random_framework(size, density, 9000 + 100 * copy + size)
              for size in range(13) for copy in range(3)]
    assert any(src == dst for fw in corpus for src, dst in fw.attacks)
    for fw in corpus:
        k = saturation_bound(fw)
        ms = range(1, k + 1)
        columns = [least_fixpoints(fw, n, ms) for n in ms]
        labels, attacks = labels_attacks(fw)
        small = len(fw) <= 6
        for n in ms:
            lfps = columns[n - 1]
            for m in ms:
                *_, least = defense_orbit(fw, m, n, 0)
                *_, greatest = defense_orbit(fw, m, n, fw.full_mask)
                assert lfps[m - 1] == least
                swapped = columns[m - 1][n - 1]
                assert neutrality_mask(fw, m, swapped) == greatest
                if small:
                    assert set(fw.set_from_mask(least).labels) == set(
                        oc.naive_lfp(labels, attacks, m, n))
                    post = set().union(*(
                        xs for xs in oc.powerset(labels)
                        if xs <= oc.graded_defense(labels, attacks, m, n, xs)))
                    assert set(fw.set_from_mask(greatest).labels) == post
                point = range(m, m + 1)
                assert least_fixpoints(fw, n, point) == [lfps[m - 1]]
            start = rng.getrandbits(len(fw)) if len(fw) else 0
            m0 = next(m for m in ms
                      if start & ~defense_mask(fw, m, n, start) == 0)
            column = least_fixpoints(fw, n, range(m0, k + 1), start)
            for m, got in enumerate(column, start=m0):
                *_, want = defense_orbit(fw, m, n, start)
                assert got == want


# -- agreement with the classical operators ----------------------------------------------


def test_dung_generalization_on_corpus():
    import random
    for i, fw in enumerate(seeded_corpus(200, sizes=(1, 10), edge_prob=0.25)):
        labels, attacks = labels_attacks(fw)
        rng = random.Random(i)
        xs = frozenset(lab for lab in labels if rng.random() < 0.5)
        x = fw.set_of(xs)
        assert (_labels(graded_defense(fw, 1, 1, x))
                == set(oc.dung_defense(labels, attacks, xs)))
        assert (_labels(graded_neutrality(fw, 1, x))
                == set(oc.dung_neutrality(labels, attacks, xs)))


# -- operator laws ------------------------------------------------------------------------


@given(framework_and_subset(), st.integers(1, 4), st.integers(1, 4))
def test_defense_is_composed_neutrality(pair, m, n):
    fw, x = pair
    composed = graded_neutrality(fw, m, graded_neutrality(fw, n, x))
    assert graded_defense(fw, m, n, x) == composed


@given(framework_and_subset(), st.integers(1, 4), st.integers(1, 4))
def test_defense_matches_counting_oracle(pair, m, n):
    fw, x = pair
    labels, attacks = labels_attacks(fw)
    want = oc.graded_defense(labels, attacks, m, n, frozenset(x.labels))
    assert _labels(graded_defense(fw, m, n, x)) == set(want)
    want_n = oc.graded_neutrality(labels, attacks, m, frozenset(x.labels))
    assert _labels(graded_neutrality(fw, m, x)) == set(want_n)


@given(framework_and_subset(), st.integers(0, 1 << 6),
       st.integers(1, 4), st.integers(1, 4))
def test_monotone_in_set_antitone_neutrality(pair, ymask_seed, m, n):
    fw, x = pair
    y = fw.set_from_mask(x.mask | (ymask_seed & fw.full_mask))
    assert graded_defense(fw, m, n, x).issubset(graded_defense(fw, m, n, y))
    assert graded_neutrality(fw, m, y).issubset(graded_neutrality(fw, m, x))


@given(framework_and_subset(), st.integers(1, 4), st.integers(1, 4))
def test_grade_monotonicity(pair, m, n):
    fw, x = pair
    assert graded_neutrality(fw, m, x).issubset(
        graded_neutrality(fw, m + 1, x))
    assert graded_defense(fw, m, n, x).issubset(
        graded_defense(fw, m + 1, n, x))
    assert graded_defense(fw, m, n + 1, x).issubset(
        graded_defense(fw, m, n, x))


@given(framework_and_subset(), grades, grades)
def test_stronger_grade_defends_less(pair, g1, g2):
    fw, x = pair
    if compare_grades(g1, g2) is GradeOrdering.STRONGER:
        assert graded_defense(fw, g1.m, g1.n, x).issubset(
            graded_defense(fw, g2.m, g2.n, x))


@settings(max_examples=40)
@given(frameworks(max_args=5), st.integers(1, 3), st.integers(0, 3))
def test_stream_stages_stay_conflict_tolerant(fw, m, extra):
    """From an (m,m,n)-admissible start with n >= m, every lower-stream
    stage keeps in-set attacks below m."""
    n = m + extra
    params = GradeParams(m, m, n)
    for mask in range(1 << len(fw)):
        x = fw.set_from_mask(mask)
        if not is_lmn_admissible(fw, params, x):
            continue
        stream = lfp_from(fw, m, n, x)
        for stage in stream.stages:
            assert stage.issubset(graded_neutrality(fw, m, stage))


@given(framework_and_subset(), st.integers(1, 3), st.integers(1, 3))
def test_iteration_stream_invariants(pair, m, n):
    fw, x = pair
    if x.mask & ~graded_defense(fw, m, n, x).mask:
        with pytest.raises(NotExpandableError):
            lfp_from(fw, m, n, x)
        return
    stream = lfp_from(fw, m, n, x)
    assert isinstance(stream, IterationStream)
    assert stream.start == x
    assert stream.stages[0] == x
    for prev, nxt in zip(stream.stages, stream.stages[1:]):
        assert nxt == graded_defense(fw, m, n, prev)
        assert prev.issubset(nxt)
    k = stream.stabilized_at
    assert stream.stages[k] == stream.stages[k + 1]
    assert all(stream.stages[j] != stream.stages[j + 1] for j in range(k))
    assert stream.limit == stream.stages[-1]
    assert len(stream.stages) <= len(fw) + 2
    assert _labels(stream.limit) == set(oc.naive_lfp(
        *labels_attacks(fw), m, n, frozenset(x.labels)))


@given(framework_and_subset(), st.integers(1, 3), st.integers(1, 3))
def test_gfp_stream_invariants(pair, m, n):
    fw, x = pair
    if x.mask & ~graded_defense(fw, m, n, x).mask:
        return
    stream = gfp_from(fw, m, n, x)
    assert stream.stages[0] == graded_neutrality(fw, n, x)
    for prev, nxt in zip(stream.stages, stream.stages[1:]):
        assert nxt == graded_defense(fw, n, m, prev)
        assert nxt.issubset(prev)
    limit = stream.limit
    assert graded_defense(fw, n, m, limit) == limit
    # greatest such fixpoint below the start of the stream
    for mask in range(1 << len(fw)):
        z = fw.set_from_mask(mask)
        if (z.issubset(stream.stages[0])
                and graded_defense(fw, n, m, z) == z):
            assert z.issubset(limit)
