"""Exact answers for the benchmark's jobs, computed off the timed path.

Nothing here calls gradarg. Graph answers come from NumPy tables over
all subsets (solve, rank --absolute) or from sparse edge arrays (rank
--contextual), written from the definitions in the package docs.
Knowledge-base answers come from integer truth tables: on these bases
the stable and preferred extensions of the defeat graph have exactly the
preferred subtheories as premise sets (the correspondence the
instantiation is built to satisfy), so each check and (1,1,1) inference
answer follows from the subtheories alone. Postulate answers are stored
in ``postulates_answer.json``: the named battery is fixed, and the
random-corpus properties hold on every framework.

``Reference.expected(job)`` returns the canonical form of what the job
must print, as ``run.observed`` reduces what it did print.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

from workloads import Base, Graph, Job, Workload  # noqa: E402

POSTULATES_ANSWER = json.loads(
    (Path(__file__).parent / "postulates_answer.json").read_text())


def _opt(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


# -- subset tables for small graphs ----------------------------------------


class SubsetTable:
    """Per-subset attack counts over all 2^n subsets of a small graph."""

    def __init__(self, graph: Graph) -> None:
        n = len(graph.labels)
        self.graph = graph
        self.n = n
        self.attackers = [[s for s, d in graph.edges if d == i]
                          for i in range(n)]
        masks = [sum(1 << s for s in att) for att in self.attackers]
        self.x = np.arange(1 << n, dtype=np.uint32)
        # inside[i][x]: attackers of i that lie in subset x
        self.inside = np.stack([np.bitwise_count(self.x & np.uint32(a))
                                for a in masks])
        shifts = np.arange(n, dtype=np.uint32)[:, None]
        members = (self.x[None, :] >> shifts) & 1
        # least l at which x is l-conflict-free
        self.tolerance = (np.where(members == 1, self.inside, 0).max(axis=0)
                          .astype(np.int64) + 1)
        self.k = max(len(a) for a in self.attackers) + 1
        self._defense: dict[tuple[int, int], np.ndarray] = {}

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        out = np.zeros_like(self.x)
        for i in range(self.n):
            out |= rows[i].astype(np.uint32) << np.uint32(i)
        return out

    def defense(self, m: int, n: int) -> np.ndarray:
        if (m, n) not in self._defense:
            # attacker j is live when countered fewer than n times
            live = self.inside < n
            counts = np.stack([live[att].sum(axis=0) if att else
                               np.zeros(len(self.x), dtype=np.int64)
                               for att in self.attackers])
            self._defense[m, n] = self._pack(counts < m)
        return self._defense[m, n]

    def neutrality(self, l: int) -> np.ndarray:
        return self._pack(self.inside < l)

    def labels_of(self, mask: int) -> list[str]:
        return [lab for i, lab in enumerate(self.graph.labels)
                if mask >> i & 1]


def _ordered(masks) -> list[int]:
    return sorted((int(v) for v in masks), key=lambda v: (v.bit_count(), v))


def _maximal(masks: list[int]) -> list[int]:
    return [x for x in masks
            if not any(y != x and x & ~y == 0 for y in masks)]


def solve_answer(table: SubsetTable, semantics: str, l: int, m: int,
                 n: int) -> tuple[str, list[int]]:
    x = table.x
    fixed = table.defense(m, n) == x
    free = table.tolerance <= l
    if semantics == "admissible":
        hits = x[free & ((x & ~table.defense(m, n)) == 0)]
    elif semantics == "stable":
        hits = x[fixed & (table.neutrality(m) == x) & free]
    else:
        hits = x[fixed & free]
    family = _ordered(hits)
    if semantics == "preferred":
        family = _maximal(family)
    elif semantics == "grounded" and family:
        least = [v for v in family if all(v & ~w == 0 for w in family)]
        if not least:
            return "no-unique-minimum", []
        family = least
    return ("found" if family else "none-exists"), family


# -- rankings --------------------------------------------------------------


def order(labels: tuple[str, ...], grades: dict[str, frozenset]) -> dict:
    """Equivalence classes, largest signature first, ties by members, and
    the cover edges of strict signature inclusion between them."""
    by_sig: dict[frozenset, list[str]] = {}
    for lab in labels:
        by_sig.setdefault(grades[lab], []).append(lab)
    classes = sorted((sorted(v) for v in by_sig.values()),
                     key=lambda c: (-len(grades[c[0]]), c))
    sigs = [grades[c[0]] for c in classes]
    above = [[b < a for b in sigs] for a in sigs]
    hasse = [[i, j] for i in range(len(sigs)) for j in range(len(sigs))
             if above[i][j] and not any(above[i][k] and above[k][j]
                                        for k in range(len(sigs)))]
    return {"classes": classes, "hasse": hasse}


def absolute_grades(table: SubsetTable,
                    semantics: str) -> dict[str, frozenset]:
    """Triples (l, m, n) in [1, K]^3 at which each argument is in every
    extension of the semantics; an empty family justifies everything."""
    x, k = table.x, table.k
    full = (1 << table.n) - 1
    grades = {lab: set() for lab in table.graph.labels}
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            fixed = table.defense(m, n) == x
            if semantics == "stable":
                fixed &= table.neutrality(m) == x
            points = list(zip(x[fixed].tolist(),
                              table.tolerance[fixed].tolist()))
            for l in range(1, k + 1):
                family = [v for v, tol in points if tol <= l]
                if semantics == "preferred":
                    family = _maximal(family)
                elif semantics == "grounded":
                    family = [v for v in family
                              if all(v & ~w == 0 for w in family)]
                sceptical = full
                for v in family:
                    sceptical &= v
                for lab in table.labels_of(sceptical):
                    grades[lab].add((l, m, n))
    return {lab: frozenset(g) for lab, g in grades.items()}


def contextual_grades(graph: Graph) -> dict[str, frozenset]:
    """Pairs (m, n) in [1, K]^2 at which each argument enters the union of
    the defense orbit of the empty set."""
    size = len(graph.labels)
    src = np.array([s for s, _ in graph.edges], dtype=np.int64)
    dst = np.array([d for _, d in graph.edges], dtype=np.int64)
    k = int(np.bincount(dst, minlength=size).max()) + 1
    grades = {lab: set() for lab in graph.labels}
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            cur = np.zeros(size, dtype=bool)
            union = cur.copy()
            seen = {cur.tobytes()}
            while True:
                inside = np.bincount(dst[cur[src]], minlength=size)
                live = np.bincount(dst, weights=inside[src] < n,
                                   minlength=size)
                cur = live < m
                key = cur.tobytes()
                if key in seen:
                    break
                seen.add(key)
                union |= cur
            for i in np.flatnonzero(union).tolist():
                grades[graph.labels[i]].add((m, n))
    return {lab: frozenset(g) for lab, g in grades.items()}


# -- knowledge bases -------------------------------------------------------


def preferred_subtheories(base: Base) -> list[list[str]]:
    """Stratum by stratum, extend each kept prefix by every maximal subset
    of the stratum consistent with it; sorted as the CLI prints them."""
    prefixes = [(base.full, frozenset())]
    for stratum in base.strata:
        grown = []
        for table, chosen in prefixes:
            fits = []
            for mask in sorted(range(1 << len(stratum)),
                               key=lambda v: -v.bit_count()):
                if any(prev & mask == mask for prev in fits):
                    continue
                t = table
                for i, f in enumerate(stratum):
                    if mask >> i & 1:
                        t &= f.table
                if t:
                    fits.append(mask)
                    grown.append((t, chosen | {f for i, f in
                                               enumerate(stratum)
                                               if mask >> i & 1}))
        prefixes = grown
    unique = {frozenset(chosen) for _, chosen in prefixes}
    return sorted(sorted(f.text for f in s) for s in unique)


def entails(base: Base, texts: list[str], goal_table: int) -> bool:
    """Whether the named formulas of the base entail the goal's table."""
    table = base.full
    for f in base.formulas:
        if f.text in texts:
            table &= f.table
    return table & ~goal_table == 0


# -- canonical envelopes ---------------------------------------------------


class Reference:
    """Expected canonical answers, cached per input."""

    def __init__(self, workload: Workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self._cache: dict = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _table(self, name: str) -> SubsetTable:
        return self._memo(("table", name),
                          lambda: SubsetTable(self.workload.inputs[name]))

    def expected(self, job: Job) -> dict:
        argv = job.argv
        command = argv[0]
        if command == "solve":
            return self._solve(job)
        if command == "postulates":
            return {"code": 0, "command": "postulates",
                    "params": {"corpus": int(_opt(argv, "--corpus")),
                               "seed": int(_opt(argv, "--seed"))},
                    "result": POSTULATES_ANSWER["result"],
                    "witnesses": POSTULATES_ANSWER["witnesses"]}
        if command == "rank":
            return self._rank(job)
        return self._instantiate(job)

    def _solve(self, job: Job) -> dict:
        argv = job.argv
        semantics = _opt(argv, "--semantics")
        l, m, n = (int(_opt(argv, f)) for f in ("--l", "--m", "--n"))
        table = self._table(job.input)
        existence, family = self._memo(
            ("solve", job.input, semantics, l, m, n),
            lambda: solve_answer(table, semantics, l, m, n))
        return {"code": 0 if existence == "found" else 1,
                "command": "solve",
                "params": {"semantics": semantics, "l": l, "m": m, "n": n},
                "result": {"existence": existence,
                           "extensions": [table.labels_of(v)
                                          for v in family]},
                "witnesses": existence != "found"}

    def _rank(self, job: Job) -> dict:
        argv = job.argv
        graph = self.workload.inputs[job.input]
        if "--absolute" in argv:
            semantics = _opt(argv, "--semantics")
            grades = self._memo(("absolute", job.input, semantics),
                                lambda: absolute_grades(
                                    self._table(job.input), semantics))
            kind = f"absolute:{semantics}"
            params = {"mode": "absolute", "semantics": semantics}
        else:
            grades = self._memo(("contextual", job.input),
                                lambda: contextual_grades(graph))
            kind = "contextual"
            params = {"mode": "contextual", "start": []}
        ranked = self._memo(("order", job.input, kind),
                            lambda: order(graph.labels, grades))
        if _opt(argv, "--output") == "text":
            return {"code": 0, **ranked}
        return {"code": 0, "command": "rank", "params": params,
                "result": {"kind": kind,
                           "signatures": {lab: sorted(map(list, g))
                                          for lab, g in grades.items()},
                           **ranked},
                "witnesses": []}

    def _instantiate(self, job: Job) -> dict:
        argv = job.argv
        base = self.workload.inputs[job.input]
        subtheories = self._memo(("ps", job.input),
                                 lambda: preferred_subtheories(base))
        params = {"kb": str(self.workdir / job.input),
                  "emit": _opt(argv, "--emit")}
        if params["emit"] == "check":
            return {"code": 0, "command": "instantiate", "params": params,
                    "result": {"matches": True,
                               "stable_equals_preferred": True,
                               "subtheories": subtheories,
                               "stable_premise_sets": subtheories},
                    "witnesses": [{"detail": "premise sets of stable "
                                   "extensions match the subtheories"}]}
        mode = _opt(argv, "--mode")
        answers = [entails(base, s, job.goal.table) for s in subtheories]
        holds = all(answers) if mode == "sceptical" else any(answers)
        return {"code": 0 if holds else 1, "command": "instantiate",
                "params": {**params, "goal": job.goal.text, "mode": mode,
                           "l": 1, "m": 1, "n": 1},
                "result": {"holds": holds, "premise_sets": subtheories},
                "witnesses": []}

