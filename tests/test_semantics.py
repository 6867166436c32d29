import itertools
import random
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from conftest import family_sets, labels_attacks, seeded_corpus
from gradarg.errors import (ConstraintViolatedError, NoExtensionError,
                            NotAdmissibleError, NotReachingError,
                            TooLargeError)
from gradarg.fixtures import (defended_two_on_one, isolated_node, mutual_pair,
                              shared_target_chain, three_cycle, two_on_one)
from gradarg.framework import ArgumentationFramework, random_framework
from gradarg.framework import _maximal as maximal_by_popcount
from gradarg.kernel import (GradeParams, graded_neutrality, least_fixpoints,
                            least_tolerance, lfp_from, saturation_bound,
                            unattacked_closure)
from gradarg.semantics import (ConvergenceReport, Existence, ExtensionFamily,
                               JustificationMode, Semantics, _candidates,
                               _family, _no_grounded, _satisfies,
                               complete_closure, enumerate_extensions,
                               grounded_by_construction,
                               is_l_conflict_free, is_lmn_admissible,
                               is_lmn_complete, is_lmn_stable, justified,
                               preferred_by_reachability, resolve_max_args,
                               stable_convergence_check)

ALL_SEMANTICS = (Semantics.ADMISSIBLE, Semantics.COMPLETE, Semantics.GROUNDED,
                 Semantics.PREFERRED, Semantics.STABLE)
CONSTRUCTION_OPS_UNSAFE = [
    lambda fw, p: grounded_by_construction(fw, p),
    lambda fw, p: complete_closure(fw, p, fw.empty_set()),
    lambda fw, p: preferred_by_reachability(fw, p, fw.full_set()),
    lambda fw, p: stable_convergence_check(fw, p, fw.empty_set()),
]


def constrained_triples(k: int):
    for m in range(1, k + 1):
        for n in range(m, k + 1):
            for l in range(m, k + 1):
                yield GradeParams(l, m, n)


def all_triples(k: int):
    for l in range(1, k + 1):
        for m in range(1, k + 1):
            for n in range(1, k + 1):
                yield GradeParams(l, m, n)


# -- predicates ----------------------------------------------------------------


def test_conflict_freeness_tolerance():
    fw = three_cycle()
    assert is_l_conflict_free(fw, 2, fw.full_set())
    assert not is_l_conflict_free(fw, 1, fw.set_of(["a", "b"]))
    assert is_l_conflict_free(fw, 1, fw.empty_set())


def test_admissibility_examples():
    fw = three_cycle()
    for params in (GradeParams(1, 1, 1), GradeParams(2, 2, 1),
                   GradeParams(3, 1, 2)):
        assert is_lmn_admissible(fw, params, fw.empty_set())
    assert is_lmn_admissible(fw, GradeParams(2, 2, 1), fw.full_set())
    pair = mutual_pair()
    assert is_lmn_admissible(pair, GradeParams(1, 1, 1), pair.set_of(["a"]))
    assert not is_lmn_admissible(fw, GradeParams(1, 1, 1), fw.set_of(["a"]))


def test_stability_examples():
    fw = three_cycle()
    assert is_lmn_stable(fw, GradeParams(2, 2, 1), fw.full_set())
    for mask in range(8):
        assert not is_lmn_stable(fw, GradeParams(1, 1, 1),
                                 fw.set_from_mask(mask))


@given(st.integers(0, 200), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 63))
def test_predicates_match_oracle(seed, l, m, n, mask_seed):
    fw = random_framework(4 + seed % 3, 0.3, seed)
    labels, attacks = labels_attacks(fw)
    x = fw.set_from_mask(mask_seed & fw.full_mask)
    xs = frozenset(x.labels)
    assert (is_l_conflict_free(fw, l, x)
            == oc.l_conflict_free(labels, attacks, l, xs))
    params = GradeParams(l, m, n)
    assert (is_lmn_admissible(fw, params, x)
            == oc.lmn_admissible(labels, attacks, l, m, n, xs))
    assert (is_lmn_complete(fw, params, x)
            == oc.lmn_complete(labels, attacks, l, m, n, xs))
    assert (is_lmn_stable(fw, params, x)
            == oc.lmn_stable(labels, attacks, l, m, n, xs))


@pytest.mark.parametrize("op", [
    lambda fw, x: is_l_conflict_free(fw, 1, x),
    lambda fw, x: is_lmn_admissible(fw, GradeParams(1, 1, 1), x),
    lambda fw, x: is_lmn_complete(fw, GradeParams(1, 1, 1), x),
    lambda fw, x: is_lmn_stable(fw, GradeParams(1, 1, 1), x),
    lambda fw, x: complete_closure(fw, GradeParams(1, 1, 1), x),
    lambda fw, x: preferred_by_reachability(fw, GradeParams(1, 1, 1), x),
    lambda fw, x: stable_convergence_check(fw, GradeParams(1, 1, 1), x),
], ids=["conflict-free", "admissible", "complete", "stable",
        "complete-closure", "preferred-by-reachability",
        "stable-convergence"])
@pytest.mark.parametrize("label", ["w", "x", "y"])
def test_predicates_and_constructions_reject_foreign_sets(op, label):
    """A set of another framework is refused, not read as a mask: its
    bits may name no argument here, or other arguments."""
    fw = ArgumentationFramework(["a", "b"], [("a", "b")])
    big = ArgumentationFramework(["w", "x", "y", "z"])
    with pytest.raises(ValueError, match="different framework"):
        op(fw, big.set_of([label]))


# -- brute-force enumeration -----------------------------------------------------


def test_enumerate_three_cycle_dung_complete():
    fam = enumerate_extensions(three_cycle(), Semantics.COMPLETE,
                               GradeParams(1, 1, 1))
    assert family_sets(fam) == {frozenset()}
    assert fam.existence is Existence.FOUND


def test_enumerate_three_cycle_tolerant_stable():
    fam = enumerate_extensions(three_cycle(), Semantics.STABLE,
                               GradeParams(2, 2, 1))
    assert family_sets(fam) == {frozenset("abc")}


def test_enumerate_defended_two_on_one_has_no_221_complete():
    fam = enumerate_extensions(defended_two_on_one(), Semantics.COMPLETE,
                               GradeParams(2, 2, 1))
    assert fam.extensions == ()
    assert fam.existence is Existence.NONE_EXISTS
    assert fam.witness is not None
    assert "no subset satisfies" in fam.witness.clause


def test_enumerate_shared_target_dung_preferred():
    fam = enumerate_extensions(shared_target_chain(), Semantics.PREFERRED,
                               GradeParams(1, 1, 1))
    assert family_sets(fam) == {frozenset(["a", "d"]), frozenset(["b", "d"])}


def test_enumerate_family_is_canonical_and_rechecks():
    fw = shared_target_chain()
    for sem in ALL_SEMANTICS:
        for params in (GradeParams(1, 1, 1), GradeParams(2, 1, 2),
                       GradeParams(2, 2, 2)):
            fam = enumerate_extensions(fw, sem, params)
            keys = [(e.mask.bit_count(), e.mask) for e in fam.extensions]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            for ext in fam.extensions:
                if sem is Semantics.ADMISSIBLE:
                    assert is_lmn_admissible(fw, params, ext)
                elif sem is Semantics.STABLE:
                    assert is_lmn_stable(fw, params, ext)
                else:
                    assert is_lmn_complete(fw, params, ext)


def test_enumerate_grounded_carries_at_most_one():
    for fw in (three_cycle(), mutual_pair(), defended_two_on_one()):
        for params in all_triples(saturation_bound(fw)):
            fam = enumerate_extensions(fw, Semantics.GROUNDED, params)
            assert len(fam.extensions) <= 1
            assert fam.existence in (Existence.FOUND, Existence.NONE_EXISTS)


def test_enumeration_bound(monkeypatch):
    big = ArgumentationFramework([f"a{i}" for i in range(25)], [])
    with pytest.raises(TooLargeError):
        enumerate_extensions(big, Semantics.STABLE, GradeParams(1, 1, 1))
    fam = enumerate_extensions(big, Semantics.STABLE, GradeParams(1, 1, 1),
                               max_args=25)
    assert family_sets(fam) == {frozenset(big.labels)}
    monkeypatch.setenv("GRADARG_MAX_ARGS", "10")
    assert resolve_max_args() == 10
    assert resolve_max_args(30) == 30
    monkeypatch.setenv("GRADARG_MAX_ARGS", "lots")
    with pytest.raises(ValueError):
        resolve_max_args()
    # 1 is the smallest cap, from the argument or from the environment
    assert resolve_max_args(1) == 1
    with pytest.raises(ValueError, match="max_args must be positive"):
        resolve_max_args(0)
    monkeypatch.setenv("GRADARG_MAX_ARGS", "1")
    assert resolve_max_args() == 1
    monkeypatch.setenv("GRADARG_MAX_ARGS", "0")
    with pytest.raises(ValueError, match="GRADARG_MAX_ARGS must be positive"):
        resolve_max_args()


# -- the exhaustive reference scan --------------------------------------


def _subsets_by_popcount(n: int) -> Iterator[int]:
    """All masks over n bits, popcount ascending, value ascending within
    each popcount class (Gosper's hack)."""
    yield 0
    top = 1 << n
    for k in range(1, n + 1):
        x = (1 << k) - 1
        while x < top:
            yield x
            c = x & -x
            r = x + c
            x = (((r ^ x) >> 2) // c) | r


def _maximal(masks: list[int]) -> list[int]:
    """The masks that no other mask contains, by comparing every pair:
    the reference for the popcount-ordered ``framework._maximal``."""
    return [x for x in masks
            if not any(y != x and x & ~y == 0 for y in masks)]


def _select(fw: ArgumentationFramework, semantics: Semantics,
            params: GradeParams, candidates: Iterable[int]) -> ExtensionFamily:
    """The family of the candidates that satisfy the semantics'
    predicate; for preferred, the maximal complete ones."""
    hits = [x for x in candidates if _satisfies(fw, semantics, params, x)]
    if semantics is Semantics.PREFERRED:
        hits = _maximal(hits)
    return _family(fw, semantics, params, hits)


def _scan_extensions(fw: ArgumentationFramework, semantics: Semantics,
                     params: GradeParams) -> ExtensionFamily:
    """The same families as enumerate_extensions, found by testing every
    one of the 2^n subsets; no cap. A reference independent of the
    search, so grounded keeps its own rule: the least of all complete
    extensions.

    That least element exists whenever a complete extension does.
    Defense is monotone, so its least fixpoint lies inside every
    fixpoint, hence inside every complete extension; conflict-freeness
    is hereditary, so the least fixpoint is then l-conflict-free and is
    itself the least complete extension."""
    subsets = _subsets_by_popcount(len(fw))
    if semantics is not Semantics.GROUNDED:
        return _select(fw, semantics, params, subsets)
    completes = [e.mask for e in _select(
        fw, Semantics.COMPLETE, params, subsets).extensions]
    if not completes:
        [least] = least_fixpoints(fw, params.n,
                                  range(params.m, params.m + 1))
        return _no_grounded(fw, params, least)
    least = [x for x in completes if all(x & ~y == 0 for y in completes)]
    return _family(fw, semantics, params, least)


@pytest.mark.parametrize("density", [0.0, 0.15, 0.3, 0.5])
def test_search_matches_scan_and_oracle(density):
    """The bounded search against the exhaustive scan at every triple in
    [1, K]^3, and against the oracle up to five arguments. The seeded
    graphs draw self-attacks like any other pair; density 0 is attack-free."""
    corpus = [random_framework(size, density, 7000 + size)
              for size in range(8)]
    if density:
        assert any(src == dst for fw in corpus for src, dst in fw.attacks)
    for fw in corpus:
        labels, attacks = labels_attacks(fw)
        for params in all_triples(saturation_bound(fw)):
            for semantics in ALL_SEMANTICS:
                got = enumerate_extensions(fw, semantics, params)
                want = _scan_extensions(fw, semantics, params)
                assert got.extensions == want.extensions
                assert got.existence is want.existence
                assert (got.witness is None) == (want.witness is None)
                if len(fw) <= 5:
                    assert family_sets(got) == oc.extension_family(
                        labels, attacks, semantics.value,
                        params.l, params.m, params.n)


def _mask_families(rng: random.Random) -> Iterator[list[int]]:
    """Seeded families of distinct masks: empty, singletons, chains,
    antichains (all masks of one popcount, or a sample of them) and
    random samples, over widths 0 to 9."""
    yield []
    for width in range(10):
        universe = range(1 << width)
        yield [rng.choice(universe)]
        chain, x = [0], 0
        for bit in rng.sample(range(width), width):
            x |= 1 << bit
            chain.append(x)
        yield rng.sample(chain, len(chain))
        level = [x for x in universe if x.bit_count() == width // 2]
        yield level
        yield rng.sample(level, rng.randint(0, len(level)))
        for _ in range(6):
            yield rng.sample(universe, rng.randint(0, len(universe)))


def test_maximal_by_popcount_matches_all_pairs_reference():
    """``framework._maximal`` against the all-pairs reference: the same
    maximal masks among the admitted ones, largest first (popcount
    descending, ties by value), and ``admit`` asked about exactly the
    masks that no other kept mask contains."""
    rng = random.Random(9100)
    admits = [lambda x: True, lambda x: x.bit_count() <= 3,
              lambda x: x % 3 != 0]
    for masks in _mask_families(rng):
        for admit in admits:
            asked: list[int] = []
            kept = maximal_by_popcount(
                masks, lambda x: asked.append(x) or admit(x))
            want = _maximal([x for x in masks if admit(x)])
            assert sorted(kept) == sorted(want), masks
            assert kept == sorted(kept, key=lambda x: (-x.bit_count(), x))
            assert sorted(asked) == sorted(
                x for x in masks
                if not any(y != x and x & ~y == 0 for y in kept))


def _two_cycles(c: int) -> ArgumentationFramework:
    """c disjoint two-cycles a_i <-> b_i."""
    labels = [f"{side}{i}" for i in range(c) for side in "ab"]
    attacks = [pair for i in range(c)
               for pair in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}"))]
    return ArgumentationFramework(labels, attacks)


@pytest.mark.parametrize("c", range(8))
def test_disjoint_two_cycles_have_one_preferred_choice_per_cycle(c):
    """At (1, 1, 1), c disjoint two-cycles have 3^c complete extensions
    and 2^c preferred ones, each taking one member of every cycle; the
    family is what the scan and, up to three cycles, the oracle give."""
    fw = _two_cycles(c)
    params = GradeParams(1, 1, 1)
    complete = enumerate_extensions(fw, Semantics.COMPLETE, params)
    preferred = enumerate_extensions(fw, Semantics.PREFERRED, params)
    assert len(complete.extensions) == 3 ** c
    assert family_sets(preferred) == {
        frozenset(choice)
        for choice in itertools.product(*(
            (f"a{i}", f"b{i}") for i in range(c)))}
    if c <= 5:
        assert preferred == _scan_extensions(fw, Semantics.PREFERRED, params)
    if c <= 3:
        labels, attacks = labels_attacks(fw)
        assert family_sets(preferred) == oc.extension_family(
            labels, attacks, "preferred", 1, 1, 1)


def _greatest_fixpoint(labels, attacks, m, n):
    cur = frozenset(labels)
    while True:
        nxt = oc.graded_defense(labels, attacks, m, n, cur)
        if nxt == cur:
            return cur
        cur = nxt


@pytest.mark.parametrize("density", [0.15, 0.3, 0.5])
def test_candidates_yield_exactly_the_conflict_free_sets_between(density):
    """The search on its own, before any predicate filters its output: at
    every l in [1, K] it yields each oracle l-conflict-free set between
    floor and ceiling exactly once, with the tolerance it was pruned
    with, which must be its least tolerance. Bounds: the empty and the
    full set, the least and greatest defense fixpoints at every (m, n),
    and a random floor inside a random ceiling."""
    rng = random.Random(8100)
    corpus = [random_framework(size, density, 8000 + size)
              for size in range(9)]
    assert any(src == dst for fw in corpus for src, dst in fw.attacks)
    for fw in corpus:
        labels, attacks = labels_attacks(fw)
        k = saturation_bound(fw)
        bounds = [(frozenset(), frozenset(labels))]
        for m in range(1, k + 1):
            for n in range(1, k + 1):
                bounds.append((oc.naive_lfp(labels, attacks, m, n),
                               _greatest_fixpoint(labels, attacks, m, n)))
        for _ in range(4):
            ceiling = frozenset(x for x in labels if rng.random() < 0.7)
            bounds.append((frozenset(x for x in ceiling
                                     if rng.random() < 0.3), ceiling))
        for l in range(1, k + 1):
            free = [xs for xs in oc.powerset(labels)
                    if oc.l_conflict_free(labels, attacks, l, xs)]
            for floor, ceiling in bounds:
                got = []
                for x, t in _candidates(fw, l, fw.set_of(floor).mask,
                                        fw.set_of(ceiling).mask):
                    assert t == least_tolerance(fw, x)
                    got.append(frozenset(fw.set_from_mask(x).labels))
                assert len(got) == len(set(got))
                assert set(got) == {xs for xs in free
                                    if floor <= xs <= ceiling}


def test_search_hits_are_counted_once(monkeypatch):
    """Outside the search's own pruning counts, a family counts no least
    tolerance, except grounded, which counts that of its least fixpoint
    once. Checked at every triple in [1, K]^3 and every semantics."""
    import gradarg.semantics as sem
    outside: list[int] = []
    searching = [False]
    real_tolerance, real_candidates = sem.least_tolerance, sem._candidates

    def tolerance(fw, x):
        if not searching[0]:
            outside.append(x)
        return real_tolerance(fw, x)

    def candidates(*args):
        found = real_candidates(*args)
        while True:
            searching[0] = True
            try:
                hit = next(found, None)
            finally:
                searching[0] = False
            if hit is None:
                return
            yield hit

    monkeypatch.setattr(sem, "least_tolerance", tolerance)
    monkeypatch.setattr(sem, "_candidates", candidates)
    for size in range(7):
        fw = random_framework(size, 0.3, 8300 + size)
        for params in all_triples(saturation_bound(fw)):
            for semantics in ALL_SEMANTICS:
                outside.clear()
                enumerate_extensions(fw, semantics, params)
                assert len(outside) == (semantics is Semantics.GROUNDED)


def _count_walks(monkeypatch) -> list:
    import gradarg.semantics as sem
    walks = []
    real = sem.least_fixpoints
    monkeypatch.setattr(sem, "least_fixpoints",
                        lambda *args: walks.append(args) or real(*args))
    return walks


def test_enumeration_walks_at_most_two_points(monkeypatch):
    """``enumerate_extensions`` walks the one point (m, n) and, unless
    m == n, the swapped point (n, m); every semantics but grounded takes
    both."""
    walks = _count_walks(monkeypatch)
    for size in range(1, 6):
        fw = random_framework(size, 0.3, 8400 + size)
        for params in all_triples(saturation_bound(fw)):
            for semantics in ALL_SEMANTICS:
                if semantics is Semantics.GROUNDED:
                    continue
                walks.clear()
                enumerate_extensions(fw, semantics, params)
                assert len(walks) == 1 + (params.m != params.n)


def test_grounded_enumeration_walks_one_point(monkeypatch):
    """Grounded reads only the least (m, n) fixpoint, so it walks (m, n)
    alone, also where m != n."""
    walks = _count_walks(monkeypatch)
    for size in range(1, 6):
        fw = random_framework(size, 0.3, 8400 + size)
        for params in all_triples(saturation_bound(fw)):
            walks.clear()
            enumerate_extensions(fw, Semantics.GROUNDED, params)
            [(_, n, ms)] = walks
            assert (n, list(ms)) == (params.n, [params.m])


# -- the constraint gate ----------------------------------------------------------


@pytest.mark.parametrize("op", CONSTRUCTION_OPS_UNSAFE)
@pytest.mark.parametrize("params", [GradeParams(2, 2, 1), GradeParams(1, 2, 2),
                                    GradeParams(3, 2, 1)])
def test_construction_requires_safe_region(op, params):
    with pytest.raises(ConstraintViolatedError, match="existence-safe"):
        op(three_cycle(), params)


def test_gated_values_remain_reachable_by_enumeration():
    """The construction ops refuse n < m, but the same extensions are
    still available through brute force."""
    fam = enumerate_extensions(three_cycle(), Semantics.GROUNDED,
                               GradeParams(2, 2, 1))
    assert family_sets(fam) == {frozenset("abc")}
    smallest = min((e for e in enumerate_extensions(
        three_cycle(), Semantics.COMPLETE, GradeParams(2, 2, 1)).extensions
        if "a" in e), key=lambda e: e.mask.bit_count())
    assert set(smallest.labels) == {"a", "b", "c"}
    fam_p = enumerate_extensions(three_cycle(), Semantics.PREFERRED,
                                 GradeParams(2, 2, 1))
    assert family_sets(fam_p) == {frozenset("abc")}


# -- grounded construction ----------------------------------------------------------


def test_grounded_by_construction_dung():
    fam = grounded_by_construction(shared_target_chain(), GradeParams(1, 1, 1))
    assert fam.existence is Existence.FOUND
    assert family_sets(fam) == {frozenset()}


def test_grounded_by_construction_tolerant_chain():
    fam = grounded_by_construction(defended_two_on_one(), GradeParams(3, 2, 2))
    assert family_sets(fam) == {frozenset(["b3", "c3", "d3", "e3"])}
    # at n=1 the same framework saturates: every argument survives, but
    # that triple sits outside the construction gate, so it is served by
    # enumeration only
    listed = enumerate_extensions(defended_two_on_one(), Semantics.GROUNDED,
                                  GradeParams(3, 2, 1))
    assert family_sets(listed) == {frozenset(["a3", "b3", "c3", "d3", "e3"])}


def test_grounded_construction_agrees_with_enumeration_on_corpus():
    for fw in seeded_corpus(40, sizes=(2, 6)):
        for params in constrained_triples(saturation_bound(fw)):
            built = grounded_by_construction(fw, params)
            listed = enumerate_extensions(fw, Semantics.GROUNDED, params)
            assert built.existence is listed.existence is Existence.FOUND
            assert family_sets(built) == family_sets(listed)


def test_grounded_unconditional_is_least_complete_everywhere():
    """Grounded enumeration, which is the least-fixpoint check alone, is
    the oracle's least complete extension at every triple, gated or not."""
    for fw in seeded_corpus(25, sizes=(2, 6), seed0=500):
        labels, attacks = labels_attacks(fw)
        for params in all_triples(saturation_bound(fw)):
            got = enumerate_extensions(fw, Semantics.GROUNDED, params)
            fam = oc.extension_family(labels, attacks, "grounded",
                                      params.l, params.m, params.n)
            assert family_sets(got) == fam


# -- closure and reachability constructions -------------------------------------------


def test_complete_closure_examples():
    fw = shared_target_chain()
    out = complete_closure(fw, GradeParams(1, 1, 1), fw.set_of(["a"]))
    assert set(out.labels) == {"a", "d"}


def test_complete_closure_of_empty_set_is_grounded():
    for fw in (three_cycle(), shared_target_chain(), two_on_one()):
        for params in (GradeParams(1, 1, 1), GradeParams(2, 1, 2),
                       GradeParams(2, 2, 2)):
            out = complete_closure(fw, params, fw.empty_set())
            fam = grounded_by_construction(fw, params)
            assert out == fam.extensions[0]


def test_complete_closure_is_smallest_complete_superset():
    """When l > m an admissible start can close into a set with too many
    internal attacks; the op must then report that no complete superset
    exists, and brute force must agree."""
    for fw in seeded_corpus(20, sizes=(2, 5), seed0=900):
        for params in constrained_triples(saturation_bound(fw)):
            fam = enumerate_extensions(fw, Semantics.COMPLETE, params)
            for mask in range(1 << len(fw)):
                x = fw.set_from_mask(mask)
                if not is_lmn_admissible(fw, params, x):
                    continue
                supersets = [e for e in fam.extensions if x.issubset(e)]
                try:
                    out = complete_closure(fw, params, x)
                except NoExtensionError:
                    assert not supersets
                    continue
                assert out in supersets
                assert all(out.issubset(e) for e in supersets)


def test_complete_closure_rejects_inadmissible_start():
    fw = three_cycle()
    with pytest.raises(NotAdmissibleError):
        complete_closure(fw, GradeParams(1, 1, 1), fw.set_of(["a"]))


def test_preferred_by_reachability_examples():
    fw = shared_target_chain()
    out = preferred_by_reachability(fw, GradeParams(1, 1, 1), fw.set_of(["a"]))
    assert set(out.labels) == {"a", "d"}
    fam = enumerate_extensions(fw, Semantics.PREFERRED, GradeParams(1, 1, 1))
    assert frozenset(out.labels) in family_sets(fam)


def test_preferred_by_reachability_requires_reach():
    fw = shared_target_chain()
    with pytest.raises(NotReachingError, match="does not attack-reach"):
        preferred_by_reachability(fw, GradeParams(1, 1, 1), fw.empty_set())
    # neither start is admissible or reaches a and b: admissibility is
    # checked first
    for start in (["c"], ["e"]):
        with pytest.raises(NotAdmissibleError):
            preferred_by_reachability(fw, GradeParams(1, 1, 1),
                                      fw.set_of(start))
    # {d} is admissible at (2, 1, 1) and misses b and c; its closure adds
    # a, which gives d two internal attackers, but the reach check comes
    # first
    loop = ArgumentationFramework(["a", "b", "c", "d"],
                                  [("a", "d"), ("d", "a"), ("d", "d")])
    with pytest.raises(NoExtensionError):
        complete_closure(loop, GradeParams(2, 1, 1), loop.set_of(["d"]))
    with pytest.raises(NotReachingError):
        preferred_by_reachability(loop, GradeParams(2, 1, 1),
                                  loop.set_of(["d"]))


def test_preferred_by_reachability_can_miss_maximality_when_l_exceeds_m():
    """With extra conflict tolerance (l > m) the two halves of a mutual
    attack defend each other in a cycle, so the closure of one half
    never picks up the other and stops short of the maximal extension."""
    fw = mutual_pair()
    params = GradeParams(2, 1, 1)
    start = fw.set_of(["a"])
    out = preferred_by_reachability(fw, params, start)
    assert set(out.labels) == {"a"}
    fam = enumerate_extensions(fw, Semantics.PREFERRED, params)
    assert family_sets(fam) == {frozenset({"a", "b"})}
    assert frozenset(out.labels) not in family_sets(fam)


def test_preferred_by_reachability_lands_in_the_family():
    for fw in seeded_corpus(30, sizes=(2, 6), seed0=300):
        reach = {lab: set() for lab in fw.labels}
        for src, dst in fw.attacks:
            reach[src].add(dst)
        changed = True
        while changed:
            changed = False
            for lab in fw.labels:
                extra = set().union(*(reach[t] for t in reach[lab])) - reach[lab]
                if extra:
                    reach[lab] |= extra
                    changed = True
        for params in constrained_triples(saturation_bound(fw)):
            fam = enumerate_extensions(fw, Semantics.PREFERRED, params)
            completes = enumerate_extensions(fw, Semantics.COMPLETE, params)
            for mask in range(1 << len(fw)):
                x = fw.set_from_mask(mask)
                if not is_lmn_admissible(fw, params, x):
                    continue
                # the reach precondition is literal: every argument, the
                # start's own members included, must sit at the end of an
                # attack path of length >= 1 from the start
                covered = set().union(*(reach[lab] for lab in x.labels),
                                      set())
                if covered != set(fw.labels):
                    continue
                supersets = [e for e in completes.extensions
                             if x.issubset(e)]
                try:
                    out = preferred_by_reachability(fw, params, x)
                except NoExtensionError:
                    assert not supersets
                    continue
                assert out in supersets
                assert all(out.issubset(e) for e in supersets)
                if params.l == params.m:
                    assert frozenset(out.labels) in family_sets(fam)


# -- stable convergence ---------------------------------------------------------------


def test_stable_convergence_positive_cases():
    fw = shared_target_chain()
    report = stable_convergence_check(fw, GradeParams(1, 1, 1),
                                      fw.set_of(["a"]))
    assert report.converged
    assert set(report.witness.arguments.labels) == {"a", "d"}
    assert "smallest stable extension" in report.witness.clause
    assert report.lower.limit == report.witness.arguments


def test_stable_convergence_negative_case():
    fw = three_cycle()
    report = stable_convergence_check(fw, GradeParams(1, 1, 1), fw.empty_set())
    assert not report.converged
    assert "upper limit differs" in report.witness.clause
    assert set(report.witness.arguments.labels) == {"a", "b", "c"}


def test_stable_convergence_rejects_inadmissible_start():
    fw = three_cycle()
    with pytest.raises(NotAdmissibleError):
        stable_convergence_check(fw, GradeParams(1, 1, 1), fw.set_of(["a"]))


def test_stable_convergence_matches_enumerated_minimum():
    """The streams meet exactly when the least defense fixpoint over the
    start is also a fixpoint of n-neutrality; the meeting point is then
    the smallest stable extension containing the start."""
    for fw in seeded_corpus(30, sizes=(2, 6), seed0=700):
        for params in constrained_triples(saturation_bound(fw)):
            fam = enumerate_extensions(fw, Semantics.STABLE, params)
            stable_sets = family_sets(fam)
            for mask in range(1 << len(fw)):
                x = fw.set_from_mask(mask)
                if not is_lmn_admissible(fw, params, x):
                    continue
                report = stable_convergence_check(fw, params, x)
                limit = report.lower.limit
                meets = graded_neutrality(fw, params.n, limit) == limit
                assert report.converged == meets
                if report.converged:
                    got = frozenset(limit.labels)
                    supersets = {s for s in stable_sets
                                 if s >= frozenset(x.labels)}
                    assert got in supersets
                    assert all(got <= s for s in supersets)


# -- justification ---------------------------------------------------------------------


def test_justified_examples():
    fw = shared_target_chain()
    sceptical = justified(fw, Semantics.PREFERRED, GradeParams(1, 1, 1),
                          JustificationMode.SCEPTICAL)
    assert set(sceptical.arguments.labels) == {"d"}
    credulous = justified(fw, Semantics.PREFERRED, GradeParams(1, 1, 1),
                          JustificationMode.CREDULOUS)
    assert set(credulous.arguments.labels) == {"a", "b", "d"}


def test_justified_empty_family_conventions():
    fw = three_cycle()
    sceptical = justified(fw, Semantics.STABLE, GradeParams(1, 1, 1),
                          JustificationMode.SCEPTICAL)
    assert sceptical.arguments == fw.full_set()
    credulous = justified(fw, Semantics.STABLE, GradeParams(1, 1, 1),
                          JustificationMode.CREDULOUS)
    assert credulous.arguments == fw.empty_set()


def test_justified_matches_oracle_on_corpus():
    for fw in seeded_corpus(25, sizes=(2, 6), seed0=40):
        labels, attacks = labels_attacks(fw)
        k = saturation_bound(fw)
        for params in (GradeParams(1, 1, 1), GradeParams(k, 1, k),
                       GradeParams(2, 2, 2)):
            for sem in (Semantics.GROUNDED, Semantics.PREFERRED,
                        Semantics.STABLE):
                for mode in JustificationMode:
                    rep = justified(fw, sem, params, mode)
                    want = oc.justified_set(labels, attacks, sem.value,
                                            params.l, params.m, params.n,
                                            mode.value)
                    assert frozenset(rep.arguments.labels) == want


# -- family-level structure -------------------------------------------------------------


def test_lattice_inclusions_on_corpus():
    for fw in seeded_corpus(40, sizes=(2, 6), seed0=1200):
        for params in all_triples(saturation_bound(fw)):
            completes = family_sets(enumerate_extensions(
                fw, Semantics.COMPLETE, params))
            admissibles = family_sets(enumerate_extensions(
                fw, Semantics.ADMISSIBLE, params))
            preferred = family_sets(enumerate_extensions(
                fw, Semantics.PREFERRED, params))
            stable = family_sets(enumerate_extensions(
                fw, Semantics.STABLE, params))
            grounded = family_sets(enumerate_extensions(
                fw, Semantics.GROUNDED, params))
            assert preferred <= completes
            assert grounded <= completes
            assert stable <= completes
            assert completes <= admissibles
            for ext in completes:
                assert oc.l_conflict_free(*labels_attacks(fw), params.l, ext)
            if params.l <= params.m:
                assert stable <= preferred


def test_stable_outside_preferred_when_tolerance_exceeds_m():
    """With l > m an outsider can be m-attacked yet within the conflict
    tolerance, so a stable extension can sit below a strictly larger
    complete one."""
    fw = mutual_pair()
    params = GradeParams(2, 1, 1)
    stable = family_sets(enumerate_extensions(fw, Semantics.STABLE, params))
    preferred = family_sets(enumerate_extensions(fw, Semantics.PREFERRED,
                                                 params))
    assert frozenset(["a"]) in stable
    assert preferred == {frozenset(["a", "b"])}
    assert not stable <= preferred


def test_unattacked_core_inside_constrained_grounded():
    for fw in seeded_corpus(40, sizes=(2, 6), seed0=77):
        core = unattacked_closure(fw)
        for params in constrained_triples(saturation_bound(fw)):
            fam = grounded_by_construction(fw, params)
            assert core.issubset(fam.extensions[0])


# -- justification monotonicity across parameters ----------------------------------------


def _grows(fw, sem, weak, strong, mode):
    lo = justified(fw, sem, strong, mode).arguments
    hi = justified(fw, sem, weak, mode).arguments
    return lo.issubset(hi)


def constrained_weakenings(k):
    triples = [p for p in constrained_triples(k)]
    for p in triples:
        for q in triples:
            if q.l >= p.l and q.m >= p.m and q.n <= p.n and p != q:
                yield p, q


def test_grounded_justification_grows_with_weaker_params():
    for fw in seeded_corpus(30, sizes=(2, 6), seed0=3000):
        for strong, weak in constrained_weakenings(saturation_bound(fw)):
            for mode in JustificationMode:
                assert _grows(fw, Semantics.GROUNDED, weak, strong, mode), (
                    fw, strong, weak, mode)


def test_stable_justification_grows_when_both_families_exist():
    for fw in seeded_corpus(30, sizes=(2, 6), seed0=3100):
        families = {}
        for params in constrained_triples(saturation_bound(fw)):
            families[params] = family_sets(enumerate_extensions(
                fw, Semantics.STABLE, params))
        for strong, weak in constrained_weakenings(saturation_bound(fw)):
            if not families[strong] or not families[weak]:
                continue
            for mode in JustificationMode:
                assert _grows(fw, Semantics.STABLE, weak, strong, mode), (
                    fw, strong, weak, mode)


def test_preferred_justification_can_shrink_despite_weaker_params():
    """Two mutual attack pairs sharing a pivot: weakening n from 2 to 1
    adds a second preferred extension and empties the sceptical core."""
    fw = ArgumentationFramework(
        ["a", "b", "c"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")])
    strong, weak = GradeParams(1, 1, 2), GradeParams(1, 1, 1)
    assert family_sets(enumerate_extensions(
        fw, Semantics.PREFERRED, strong)) == {frozenset(["b", "c"])}
    assert family_sets(enumerate_extensions(
        fw, Semantics.PREFERRED, weak)) == {frozenset(["a"]),
                                            frozenset(["b", "c"])}
    assert not _grows(fw, Semantics.PREFERRED, weak, strong,
                      JustificationMode.SCEPTICAL)


# -- Dung baseline ------------------------------------------------------------------------


def test_dung_baseline_families_on_corpus():
    params = GradeParams(1, 1, 1)
    for fw in seeded_corpus(40, sizes=(1, 6), seed0=11):
        labels, attacks = labels_attacks(fw)
        grounded = family_sets(enumerate_extensions(
            fw, Semantics.GROUNDED, params))
        assert grounded == {oc.dung_grounded(labels, attacks)}
        preferred = family_sets(enumerate_extensions(
            fw, Semantics.PREFERRED, params))
        assert preferred == oc.dung_preferred(labels, attacks)
        stable = family_sets(enumerate_extensions(
            fw, Semantics.STABLE, params))
        assert stable == oc.dung_stable(labels, attacks)
        complete = family_sets(enumerate_extensions(
            fw, Semantics.COMPLETE, params))
        assert complete == oc.dung_complete(labels, attacks)
