"""Attack graphs and index-based argument sets.

An argumentation framework is a finite directed graph whose nodes are
arguments and whose edges are attacks. Arguments carry a human-readable
label and a dense integer index; sets of arguments are stored as bitmasks
over the index range, which keeps the counting operators and fixpoint
iterations cheap even under exhaustive subset scans.

The attack relation is held in one shape, per-argument rows built by the
constructor in one pass over the distinct attacks: ``attacker_masks``
(row i is the bitmask of i's attackers), ``target_masks`` (the bitmask
of i's targets), ``target_indices`` (i's targets as indices) and
``in_degrees``. The operators read the rows directly; ``attacks`` and
``attack_indices`` are derived from the target rows on request.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

@dataclass(frozen=True)
class ArgumentId:
    """An argument: dense index plus display label."""

    index: int
    label: str

    def __str__(self) -> str:
        return self.label


class ArgumentationFramework:
    """An immutable directed attack graph.

    Labels are unique non-empty strings. Attacks are ordered pairs of
    declared labels; self-attacks are allowed and duplicates collapse.
    """

    __slots__ = ("_labels", "_index", "_attacker_masks", "_target_masks",
                 "_target_indices", "_in_degrees", "_hash")

    def __init__(self, arguments: Sequence[str],
                 attacks: Iterable[tuple[str, str]] = ()) -> None:
        labels = tuple(arguments)
        index: dict[str, int] = {}
        for lab in labels:
            if not lab:
                raise ValueError("argument labels must be non-empty")
            if lab in index:
                raise ValueError(f"duplicate argument label {lab!r}")
            index[lab] = len(index)
        pairs: set[tuple[int, int]] = set()
        for src, dst in attacks:
            if src not in index:
                raise ValueError(f"attack source {src!r} is not declared")
            if dst not in index:
                raise ValueError(f"attack target {dst!r} is not declared")
            pairs.add((index[src], index[dst]))
        attacker_masks = [0] * len(labels)
        target_masks = [0] * len(labels)
        targets: list[list[int]] = [[] for _ in labels]
        for s, d in pairs:
            attacker_masks[d] |= 1 << s
            target_masks[s] |= 1 << d
            targets[s].append(d)
        self._labels = labels
        self._index = index
        self._attacker_masks = tuple(attacker_masks)
        self._target_masks = tuple(target_masks)
        self._target_indices = tuple(map(tuple, targets))
        self._in_degrees = tuple(map(int.bit_count, attacker_masks))
        self._hash = hash((labels, self._attacker_masks))

    # -- basic inspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def attacks(self) -> tuple[tuple[str, str], ...]:
        """Attack pairs as labels, sorted by (source index, target index)."""
        labels = self._labels
        return tuple((labels[s], labels[d])
                     for s, row in enumerate(self._target_indices)
                     for d in sorted(row))

    @property
    def attack_indices(self) -> frozenset[tuple[int, int]]:
        return frozenset((s, d) for s, row in enumerate(self._target_indices)
                         for d in row)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown argument {label!r}") from None

    @property
    def attacker_masks(self) -> tuple[int, ...]:
        """Row i: the bitmask of the attackers of argument i."""
        return self._attacker_masks

    @property
    def target_masks(self) -> tuple[int, ...]:
        """Row i: the bitmask of the arguments that argument i attacks."""
        return self._target_masks

    @property
    def target_indices(self) -> tuple[tuple[int, ...], ...]:
        """Row i: the indices of the arguments that argument i attacks,
        in no particular order."""
        return self._target_indices

    def attackers_of(self, label: str) -> "ArgumentSet":
        return ArgumentSet(self, self._attacker_masks[self.index_of(label)])

    def defenders_of(self, label: str) -> "ArgumentSet":
        """Attackers of the attackers."""
        rows = self._attacker_masks
        return ArgumentSet(self, _image(rows, rows[self.index_of(label)]))

    @property
    def in_degrees(self) -> tuple[int, ...]:
        """Each argument's number of attackers, by index."""
        return self._in_degrees

    def in_degree(self, label: str) -> int:
        return self._in_degrees[self.index_of(label)]

    @property
    def max_in_degree(self) -> int:
        return max(self._in_degrees, default=0)

    # -- set construction ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << len(self._labels)) - 1

    def empty_set(self) -> "ArgumentSet":
        return ArgumentSet(self, 0)

    def full_set(self) -> "ArgumentSet":
        return ArgumentSet(self, self.full_mask)

    def set_of(self, labels: Iterable[str]) -> "ArgumentSet":
        mask = 0
        for lab in labels:
            mask |= 1 << self.index_of(lab)
        return ArgumentSet(self, mask)

    def set_from_mask(self, mask: int) -> "ArgumentSet":
        return ArgumentSet(self, mask)

    # -- equality --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ArgumentationFramework)
                and self._labels == other._labels
                and self._attacker_masks == other._attacker_masks)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"ArgumentationFramework({len(self._labels)} arguments, "
                f"{sum(self._in_degrees)} attacks)")


@dataclass(frozen=True)
class ArgumentSet:
    """A subset of a framework's arguments, stored as a bitmask."""

    framework: ArgumentationFramework
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.framework.full_mask:
            raise ValueError("mask has bits outside the argument range")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[ArgumentId]:
        m = self.mask
        labels = self.framework.labels
        while m:
            low = m & -m
            i = low.bit_length() - 1
            yield ArgumentId(i, labels[i])
            m ^= low

    def __contains__(self, item: object) -> bool:
        if isinstance(item, ArgumentId):
            return bool(self.mask >> item.index & 1)
        if isinstance(item, str):
            return bool(self.mask >> self.framework.index_of(item) & 1)
        return False

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self)

    def complement(self) -> "ArgumentSet":
        return ArgumentSet(self.framework, self.framework.full_mask & ~self.mask)

    def issubset(self, other: "ArgumentSet") -> bool:
        return self.mask & ~_mask(self.framework, other) == 0

    def __str__(self) -> str:
        return "{" + ", ".join(self.labels) + "}"


def random_framework(n_args: int, edge_prob: float,
                     seed: int) -> ArgumentationFramework:
    """A seeded random framework with labels a0..a{n-1}.

    Each ordered pair, self-attacks included, is drawn independently with
    the given probability; pairs are visited row-major by index so the same
    seed always yields the same graph.
    """
    if n_args < 0:
        raise ValueError("n_args must be non-negative")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    labels = [f"a{i}" for i in range(n_args)]
    attacks = [(labels[s], labels[d])
               for s in range(n_args) for d in range(n_args)
               if rng.random() < edge_prob]
    return ArgumentationFramework(labels, attacks)


def _mask(fw: ArgumentationFramework, x: ArgumentSet) -> int:
    """The bitmask of x, which must be a set of fw's arguments."""
    if x.framework != fw:
        raise ValueError("argument set belongs to a different framework")
    return x.mask


def _image(rows: Sequence[int], mask: int) -> int:
    """The OR of the rows indexed by the members of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(rows: Sequence[int], frontier: int, reached: int = 0) -> int:
    """The union of ``reached`` and every index that the rows lead to
    from the frontier, in one or more steps: take the frontier's image,
    drop what is already reached, and repeat until nothing new appears.
    The walk does not step on from an index of ``reached`` outside the
    frontier, so ``reached`` holds visited indices: nothing, or the
    frontier itself."""
    while frontier:
        nxt = _image(rows, frontier)
        frontier = nxt & ~reached
        reached |= nxt
    return reached


def _maximal(masks: Iterable[int],
             admit: Callable[[int], bool] = lambda mask: True) -> list[int]:
    """The inclusion-maximal masks among those that ``admit`` accepts,
    largest first.

    The masks are visited by popcount, descending, ties by value, and a
    mask is kept when no kept mask contains it and ``admit`` accepts it.
    A strict superset has more bits, so it is visited first: a maximal
    admitted mask is kept, since every kept mask is admitted, and any
    other admitted mask lies inside a maximal one kept before it. For p
    maximal masks among h that costs O(h * p) containment tests, and
    ``admit`` runs only on masks that no kept mask contains.
    """
    kept: list[int] = []
    for x in sorted(masks, key=lambda v: (-v.bit_count(), v)):
        if all(x & ~y for y in kept) and admit(x):
            kept.append(x)
    return kept


def connected_components(
        fw: ArgumentationFramework) -> tuple[ArgumentationFramework, ...]:
    """Weakly connected components as label-preserving sub-frameworks.

    Components are ordered by their smallest member index; isolated
    arguments form singleton components.
    """
    labels, targets = fw.labels, fw.target_indices
    both = tuple(map(int.__or__, fw.attacker_masks, fw.target_masks))
    seen = 0
    parts: list[ArgumentationFramework] = []
    for start in range(len(fw)):
        if seen >> start & 1:
            continue
        comp = _reach(both, 1 << start, 1 << start)
        seen |= comp
        # every index below start lies in an earlier component
        members = [i for i in range(start, len(fw)) if comp >> i & 1]
        parts.append(ArgumentationFramework(
            [labels[i] for i in members],
            [(labels[s], labels[d]) for s in members for d in targets[s]]))
    return tuple(parts)


def disjoint_union(a: ArgumentationFramework,
                   b: ArgumentationFramework) -> ArgumentationFramework:
    """Side-by-side union of two frameworks with disjoint label sets."""
    clash = set(a.labels) & set(b.labels)
    if clash:
        raise ValueError(f"label sets overlap: {sorted(clash)}")
    return ArgumentationFramework(a.labels + b.labels,
                                  a.attacks + b.attacks)


def relabel(fw: ArgumentationFramework,
            mapping: dict[str, str]) -> ArgumentationFramework:
    """Rename arguments through a total injective label mapping."""
    missing = [lab for lab in fw.labels if lab not in mapping]
    if missing:
        raise ValueError(f"mapping misses labels: {missing}")
    new_labels = [mapping[lab] for lab in fw.labels]
    if len(set(new_labels)) != len(new_labels):
        raise ValueError("mapping is not injective on the framework's labels")
    return ArgumentationFramework(
        new_labels, [(mapping[s], mapping[d]) for s, d in fw.attacks])
