import copy
import pickle
import random

import pytest
from hypothesis import given

import oracles as oc
from conftest import framework_and_subset, frameworks
from gradarg import fixtures
from gradarg.errors import NotReachingError
from gradarg.fixtures import (attack_chain, isolated_node, mutual_pair,
                              single_chain, three_cycle, two_on_one)
from gradarg.framework import (ArgumentationFramework, _reach,
                               connected_components, disjoint_union,
                               random_framework, relabel)
from gradarg.kernel import GradeParams
from gradarg.semantics import (Semantics, enumerate_extensions,
                               preferred_by_reachability)


# -- construction and validation ---------------------------------------------


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate argument label"):
        ArgumentationFramework(["a", "a"], [])


def test_rejects_empty_label():
    with pytest.raises(ValueError, match="non-empty"):
        ArgumentationFramework(["a", ""], [])


def test_rejects_undeclared_attack_endpoints():
    with pytest.raises(ValueError, match="source 'x'"):
        ArgumentationFramework(["a"], [("x", "a")])
    with pytest.raises(ValueError, match="target 'y'"):
        ArgumentationFramework(["a"], [("a", "y")])


def test_duplicate_attacks_collapse():
    fw = ArgumentationFramework(["a", "b"], [("a", "b"), ("a", "b")])
    assert fw.attacks == (("a", "b"),)


def test_self_attacks_allowed():
    fw = ArgumentationFramework(["a"], [("a", "a")])
    assert fw.attacks == (("a", "a"),)
    assert fw.in_degree("a") == 1


def test_attack_structure_queries():
    fw = two_on_one()
    assert set(fw.attackers_of("b2").labels) == {"c2", "d2"}
    assert fw.in_degree("b2") == 2
    assert fw.max_in_degree == 2
    assert set(fw.defenders_of("a2").labels) == {"c2", "d2"}


def test_unknown_label_lookup_raises():
    fw = three_cycle()
    for lookup in (fw.index_of, fw.attackers_of, fw.defenders_of,
                   fw.in_degree, lambda lab: fw.set_of(["a", lab])):
        with pytest.raises(KeyError, match="unknown argument 'zz'"):
            lookup("zz")


def test_equality_ignores_attack_order_but_not_labels():
    fw1 = ArgumentationFramework(["a", "b"], [("a", "b"), ("b", "a")])
    fw2 = ArgumentationFramework(["a", "b"], [("b", "a"), ("a", "b")])
    fw3 = ArgumentationFramework(["b", "a"], [("a", "b"), ("b", "a")])
    assert fw1 == fw2
    assert hash(fw1) == hash(fw2)
    assert fw1 != fw3


def _raw_attack_lists(count: int, seed: int):
    """Seeded (labels, attacks) inputs of 0 to 9 arguments whose attack
    lists repeat pairs and hold self-attacks, in no particular order."""
    rng = random.Random(seed)
    for i in range(count):
        size = i % 10
        labels = [f"v{j}" for j in rng.sample(range(100), size)]
        attacks = [(rng.choice(labels), rng.choice(labels))
                   for _ in range(rng.randrange(3 * size + 1))] if size else []
        attacks += rng.sample(attacks, len(attacks) // 3)
        attacks += [(lab, lab) for lab in labels if rng.random() < 0.15]
        rng.shuffle(attacks)
        yield labels, attacks


def test_attack_rows_match_the_pairs_they_come_from():
    """Every view of the attack relation, held to the distinct pairs of
    the raw attack list: the three row tuples, in-degrees, the stored
    full mask and largest in-degree, both pair views (``attacks`` in
    (source, target) index order), equality and hash, copies and pickles
    that keep both, fields that refuse assignment, defenders,
    components, reachability along either row tuple, and the reach test
    of ``preferred_by_reachability``."""
    seen = {"self": 0, "duplicate": 0, "sizes": set()}
    rng = random.Random(5)
    for labels, raw in _raw_attack_lists(200, 2026):
        fw = ArgumentationFramework(labels, raw)
        pairs = oc.index_pairs(labels, raw)
        size = len(labels)
        seen["sizes"].add(size)
        seen["self"] += any(s == d for s, d in pairs)
        seen["duplicate"] += len(raw) > len(pairs)
        indices = range(size)
        assert fw.attacker_masks == tuple(
            sum(1 << s for s, d in pairs if d == i) for i in indices)
        assert fw.target_masks == tuple(
            sum(1 << d for s, d in pairs if s == i) for i in indices)
        assert tuple(map(sorted, fw.target_indices)) == tuple(
            [d for s, d in pairs if s == i] for i in indices)
        assert fw.in_degrees == tuple(
            sum(d == i for s, d in pairs) for i in indices)
        assert fw.full_mask == (1 << size) - 1
        assert fw.max_in_degree == max(fw.in_degrees, default=0)
        assert fw.attacks == tuple((labels[s], labels[d]) for s, d in pairs)
        assert fw.attack_indices == frozenset(pairs)

        shuffled = list(reversed(raw)) + raw[:2]
        same = ArgumentationFramework(labels, shuffled)
        assert fw == same and hash(fw) == hash(same)
        if pairs:
            fewer = ArgumentationFramework(labels, [
                (labels[s], labels[d]) for s, d in pairs[1:]])
            assert fw != fewer
        permuted = labels[::-1]
        other = ArgumentationFramework(permuted, raw)
        assert (fw == other) == (labels == permuted)
        for twin in (copy.copy(fw), copy.deepcopy(fw),
                     pickle.loads(pickle.dumps(fw))):
            assert twin == fw and hash(twin) == hash(fw)
        for name in ("labels", "attacker_masks", "full_mask", "_index",
                     "_hash"):
            with pytest.raises(AttributeError):
                setattr(fw, name, getattr(fw, name))

        for i, lab in enumerate(labels):
            attackers = {s for s, d in pairs if d == i}
            expected = {s for s, d in pairs if d in attackers}
            assert set(fw.defenders_of(lab).labels) == {
                labels[j] for j in expected}

        parts = connected_components(fw)
        reference = oc.weak_components(size, pairs)
        assert [c.labels for c in parts] == [
            tuple(labels[i] for i in members) for members in reference]
        for part, members in zip(parts, reference):
            assert part.attacks == tuple(
                (labels[s], labels[d]) for s, d in pairs if s in members)

        for _ in range(3):
            frontier = rng.getrandbits(size) if size else 0
            start = [i for i in indices if frontier >> i & 1]
            for backward, step in ((False, fw.target_masks),
                                   (True, fw.attacker_masks)):
                ahead = oc.reach(pairs, start, backward)
                assert _reach(step, frontier) == sum(1 << i for i in ahead)
                assert _reach(step, frontier, frontier) == sum(
                    1 << i for i in ahead | set(start))

        grounded = enumerate_extensions(
            fw, Semantics.GROUNDED, GradeParams(1, 1, 1)).extensions[0]
        missing = set(indices) - oc.reach(
            pairs, [i for i in indices if grounded.mask >> i & 1])
        if missing:
            with pytest.raises(NotReachingError) as info:
                preferred_by_reachability(fw, GradeParams(1, 1, 1), grounded)
            assert str(info.value).endswith(str(fw.set_of(
                labels[i] for i in sorted(missing))))
        else:
            preferred_by_reachability(fw, GradeParams(1, 1, 1), grounded)
    assert {0, 1} <= seen["sizes"]
    assert seen["self"] >= 20 and seen["duplicate"] >= 20


# -- argument sets -----------------------------------------------------------


def test_set_construction_and_membership():
    fw = three_cycle()
    x = fw.set_of(["a", "c"])
    assert "a" in x and "c" in x and "b" not in x
    assert len(x) == 2
    assert x.labels == ("a", "c")
    assert fw.empty_set().mask == 0
    assert fw.full_set().labels == ("a", "b", "c")


def test_set_membership_of_argument_ids():
    """An argument id is in a set exactly when its own index is, so
    with every other argument left out, no id reads a neighbour's bit.
    An object that names no argument is not in the set."""
    fw = random_framework(5, 0.3, seed=7)
    x = fw.set_of(["a0", "a2", "a4"])
    for argument in fw.full_set():
        assert (argument in x) is (argument.index % 2 == 0)
    assert 0 not in x
    assert "a1" not in x


def test_set_algebra():
    fw = three_cycle()
    x = fw.set_of(["a", "b"])
    y = fw.set_of(["b", "c"])
    assert x.complement() == fw.set_of(["c"])
    assert x.complement().complement() == x
    assert x.issubset(fw.full_set())
    assert fw.empty_set().issubset(y)
    assert not fw.full_set().issubset(x)
    assert not x.issubset(y)


def test_sets_of_different_frameworks_do_not_mix():
    x = three_cycle().set_of(["a"])
    y = mutual_pair().set_of(["a"])
    with pytest.raises(ValueError) as info:
        x.issubset(y)
    assert str(info.value) == "argument set belongs to a different framework"


def test_mask_out_of_range_rejected():
    fw = mutual_pair()
    with pytest.raises(ValueError, match="outside the argument range"):
        fw.set_from_mask(1 << 5)


@given(framework_and_subset())
def test_set_iteration_matches_mask(pair):
    fw, x = pair
    assert {arg.label for arg in x} == set(x.labels)
    assert all(fw.labels[arg.index] == arg.label for arg in x)
    assert len(x) == x.mask.bit_count()


# -- generators and combinators ----------------------------------------------


def test_random_framework_deterministic():
    fw1 = random_framework(6, 0.3, 42)
    fw2 = random_framework(6, 0.3, 42)
    assert fw1 == fw2
    assert fw1.labels == tuple(f"a{i}" for i in range(6))
    assert random_framework(6, 0.3, 43) != fw1


def test_random_framework_edge_prob_extremes():
    assert random_framework(4, 0.0, 1).attacks == ()
    full = random_framework(3, 1.0, 1)
    assert len(full.attacks) == 9


def test_random_framework_validation():
    with pytest.raises(ValueError):
        random_framework(-1, 0.5, 0)
    with pytest.raises(ValueError):
        random_framework(3, 1.5, 0)


def test_disjoint_union_preserves_structure():
    fw = disjoint_union(single_chain(), two_on_one())
    assert set(fw.labels) == {"a1", "b1", "c1", "a2", "b2", "c2", "d2"}
    assert set(fw.attacks) == set(single_chain().attacks) | set(
        two_on_one().attacks)


def test_disjoint_union_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        disjoint_union(three_cycle(), three_cycle())


def test_relabel_roundtrip():
    fw = three_cycle()
    fwd = {"a": "x", "b": "y", "c": "z"}
    back = {v: k for k, v in fwd.items()}
    out = relabel(fw, fwd)
    assert set(out.labels) == {"x", "y", "z"}
    assert relabel(out, back) == fw


def test_relabel_requires_total_injective_mapping():
    fw = mutual_pair()
    with pytest.raises(ValueError, match="misses"):
        relabel(fw, {"a": "x"})
    with pytest.raises(ValueError, match="injective"):
        relabel(fw, {"a": "x", "b": "x"})


# -- named fixtures ----------------------------------------------------------


FIXTURES = {name: getattr(fixtures, name) for name in (
    "mutual_pair", "three_cycle", "shared_target_chain", "single_chain",
    "two_on_one", "defended_two_on_one", "three_on_one_mixed_defense",
    "self_contradiction", "quality_precedence", "self_loop_and_edge",
    "depth_chain_and_root_attack")}
EXPECTED_SHAPES = {
    "mutual_pair": (2, {("a", "b"), ("b", "a")}),
    "three_cycle": (3, {("a", "b"), ("b", "c"), ("c", "a")}),
    "shared_target_chain": (5, {("a", "b"), ("b", "a"), ("a", "c"),
                                ("b", "c"), ("c", "d"), ("d", "e")}),
    "single_chain": (3, {("c1", "b1"), ("b1", "a1")}),
    "two_on_one": (4, {("c2", "b2"), ("d2", "b2"), ("b2", "a2")}),
    "defended_two_on_one": (5, {("b3", "a3"), ("c3", "a3"), ("d3", "b3"),
                                ("e3", "c3")}),
    "self_contradiction": (4, {("a", "a"), ("a1", "b"), ("a2", "b")}),
    "self_loop_and_edge": (3, {("a", "a"), ("b", "c")}),
    "quality_precedence": (10, {("e", "c"), ("c", "b"), ("e1", "d1"),
                                ("e2", "d1"), ("d1", "a"), ("e3", "d2"),
                                ("e4", "d2"), ("d2", "a")}),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_SHAPES))
def test_fixture_shapes(name):
    fw = FIXTURES[name]()
    count, attacks = EXPECTED_SHAPES[name]
    assert len(fw) == count
    assert set(fw.attacks) == attacks


def test_fixture_registry_complete():
    for name, builder in FIXTURES.items():
        fw = builder()
        assert isinstance(fw, ArgumentationFramework), name
        assert builder() == fw, name


def test_attack_chain_builder():
    fw = attack_chain(3)
    assert set(fw.attacks) == {("w1", "y"), ("w2", "w1"), ("w3", "w2")}
    assert isolated_node("q").labels == ("q",)
    with pytest.raises(ValueError):
        attack_chain(0)
