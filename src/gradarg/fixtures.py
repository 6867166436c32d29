"""Small named frameworks used across tests, checkers, and docs.

Each builder returns a fresh framework; names describe the attack
structure, not any intended verdict.
"""
from __future__ import annotations

from .framework import ArgumentationFramework


def mutual_pair() -> ArgumentationFramework:
    """Two arguments attacking each other."""
    return ArgumentationFramework(["a", "b"], [("a", "b"), ("b", "a")])


def three_cycle() -> ArgumentationFramework:
    """Odd cycle a -> b -> c -> a."""
    return ArgumentationFramework(["a", "b", "c"],
                                  [("a", "b"), ("b", "c"), ("c", "a")])


def shared_target_chain() -> ArgumentationFramework:
    """Mutual pair whose members both hit c, then a chain c -> d -> e."""
    return ArgumentationFramework(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"), ("c", "d"),
         ("d", "e")])


def single_chain() -> ArgumentationFramework:
    """c1 -> b1 -> a1."""
    return ArgumentationFramework(["a1", "b1", "c1"],
                                  [("c1", "b1"), ("b1", "a1")])


def two_on_one() -> ArgumentationFramework:
    """b2 is hit twice and passes the attack on to a2."""
    return ArgumentationFramework(
        ["a2", "b2", "c2", "d2"],
        [("c2", "b2"), ("d2", "b2"), ("b2", "a2")])


def defended_two_on_one() -> ArgumentationFramework:
    """a3 is hit twice, but each attacker is itself attacked."""
    return ArgumentationFramework(
        ["a3", "b3", "c3", "d3", "e3"],
        [("b3", "a3"), ("c3", "a3"), ("d3", "b3"), ("e3", "c3")])


def three_on_one_mixed_defense() -> ArgumentationFramework:
    """a4 is hit three times; its attackers carry one or two attackers
    each, so defense depth and attack count pull in opposite ways."""
    return ArgumentationFramework(
        ["a4", "b4", "c4", "d4", "f1", "f2", "g1", "h1", "h2"],
        [("f1", "b4"), ("f2", "b4"), ("g1", "c4"), ("h1", "d4"),
         ("h2", "d4"), ("b4", "a4"), ("c4", "a4"), ("d4", "a4")])


def self_contradiction() -> ArgumentationFramework:
    """A self-attacker next to a doubly-attacked bystander."""
    return ArgumentationFramework(
        ["a", "a1", "a2", "b"],
        [("a", "a"), ("a1", "b"), ("a2", "b")])


def quality_precedence() -> ArgumentationFramework:
    """b has one defended attacker; a has two defended attackers."""
    return ArgumentationFramework(
        ["a", "b", "c", "d1", "d2", "e", "e1", "e2", "e3", "e4"],
        [("e", "c"), ("c", "b"), ("e1", "d1"), ("e2", "d1"), ("d1", "a"),
         ("e3", "d2"), ("e4", "d2"), ("d2", "a")])


def self_loop_and_edge() -> ArgumentationFramework:
    """A self-attacker beside an unrelated attacking pair."""
    return ArgumentationFramework(["a", "b", "c"], [("a", "a"), ("b", "c")])


def depth_chain_and_root_attack() -> ArgumentationFramework:
    """x sits at the end of a chain t -> r -> p -> x; y is hit once by
    the unattacked u. Same in-degree, different defense depth."""
    return ArgumentationFramework(
        ["p", "r", "t", "u", "x", "y"],
        [("t", "r"), ("r", "p"), ("p", "x"), ("u", "y")])


def isolated_node(label: str = "x") -> ArgumentationFramework:
    return ArgumentationFramework([label], [])


def attack_chain(length: int, target: str = "y",
                 prefix: str = "w") -> ArgumentationFramework:
    """target <- w1 <- w2 <- ... <- w{length}."""
    if length < 1:
        raise ValueError("length must be positive")
    labels = [target] + [f"{prefix}{i}" for i in range(1, length + 1)]
    attacks = [(f"{prefix}1", target)]
    attacks += [(f"{prefix}{i + 1}", f"{prefix}{i}")
                for i in range(1, length)]
    return ArgumentationFramework(labels, attacks)

