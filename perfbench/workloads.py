"""Seeded inputs and job lists for the benchmark workloads.

Every input is a pure function of the workload name and the seed: graphs
and knowledge bases come from ``random.Random`` instances seeded with
strings, which hash the same way in every process. Jobs are argument
vectors for ``gradarg.cli.main``; each names one input file.

A workload is a list of rounds. Every round holds the workload's whole
mix of sizes and commands, on inputs of its own, so rounds differ only
in the random draws. The timed loop runs whole rounds, cycling through
them, for about its time budget; the traced run replays the first round.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Graph:
    """An attack graph as the benchmark generated it."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # (attacker, target) index pairs

    def tgf(self) -> str:
        lines = list(self.labels) + ["#"]
        lines += [f"{self.labels[s]} {self.labels[d]}" for s, d in self.edges]
        return "\n".join(lines) + "\n"

    def apx(self) -> str:
        lines = [f"arg({lab})." for lab in self.labels]
        lines += [f"att({self.labels[s]},{self.labels[d]})."
                  for s, d in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Formula:
    """A formula as text in the CLI's canonical rendering, with its truth
    table over the base's atoms (bit r is the value on row r)."""

    text: str
    table: int


@dataclass(frozen=True)
class Base:
    """A stratified knowledge base; stratum 1 is the most preferred."""

    atoms: tuple[str, ...]
    strata: tuple[tuple[Formula, ...], ...]

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(f for stratum in self.strata for f in stratum)

    @property
    def full(self) -> int:
        return (1 << (1 << len(self.atoms))) - 1

    def text(self) -> str:
        return "".join(f"{level}: {f.text}\n"
                       for level, stratum in enumerate(self.strata, start=1)
                       for f in stratum)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    input: str  # file name inside the work directory
    goal: Formula | None = None  # infer jobs only


@dataclass
class Workload:
    name: str
    files: dict[str, str] = field(default_factory=dict)
    inputs: dict[str, Graph | Base] = field(default_factory=dict)
    rounds: list[list[Job]] = field(default_factory=list)


def _rng(*parts: object) -> random.Random:
    return random.Random("/".join(map(str, parts)))


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(n))


def edge_count_graph(n: int, edges: int, rng: random.Random) -> Graph:
    """Uniform graph with exactly ``edges`` attacks, self-attacks allowed.

    A fixed count instead of an independent coin per pair keeps the
    density, and with it the cost of a scan, the same from seed to seed.
    """
    picks = sorted(rng.sample(range(n * n), edges))
    return Graph(_labels(n), tuple(divmod(p, n) for p in picks))


def degree_graph(indegrees: list[int], rng: random.Random) -> Graph:
    """Graph whose targets get the given in-degrees in shuffled order,
    each from attackers drawn uniformly (self-attacks allowed).

    Fixing the degree multiset fixes the saturation bound K = max
    in-degree + 1, which sets the size of every grade sweep.
    """
    n = len(indegrees)
    degrees = list(indegrees)
    rng.shuffle(degrees)
    edges = sorted((s, d) for d in range(n)
                   for s in rng.sample(range(n), degrees[d]))
    return Graph(_labels(n), tuple(edges))


def _write_graph(wl: Workload, key: str, graph: Graph, fmt: str) -> str:
    name = f"{key}.{fmt}"
    wl.files[name] = graph.tgf() if fmt == "tgf" else graph.apx()
    wl.inputs[name] = graph
    return name


# -- enum-search -----------------------------------------------------------

SEMANTICS = ("admissible", "complete", "grounded", "preferred", "stable")
# (1,1,1), (2,1,2) and (3,2,2) lie in the existence-safe region n >= m,
# l >= m; (2,2,1) and (1,2,3) lie outside it.
TRIPLES = ((1, 1, 1), (2, 2, 1), (1, 2, 3), (2, 1, 2), (3, 2, 2))
ENUM_SIZES = (13, 14, 15, 16)
ENUM_DENSITIES = (0.1, 0.2, 0.3)


def enum_search(seed: int, rounds: int = 5) -> Workload:
    """Each job scans its own graph, so one run averages over many graphs.

    Sizes (4), semantics (5) and densities (3) cycle with the job's place
    in the round, so a round of 60 holds every (size, semantics, density)
    once. The triples shift by one place per round, so five rounds hold
    each of those with every triple.
    """
    wl = Workload("enum-search")
    for r in range(rounds):
        jobs = []
        for j in range(60):
            n = ENUM_SIZES[j % len(ENUM_SIZES)]
            p = ENUM_DENSITIES[j % len(ENUM_DENSITIES)]
            l, m, n_ = TRIPLES[(j + r) % len(TRIPLES)]
            graph = edge_count_graph(n, round(p * n * n),
                                     _rng("enum-search", seed, r, j))
            path = _write_graph(wl, f"r{r}-j{j}-n{n}", graph, "tgf")
            jobs.append(Job(("solve", "--input", path, "--semantics",
                             SEMANTICS[j % len(SEMANTICS)], "--l", str(l),
                             "--m", str(m), "--n", str(n_),
                             "--output", "json"), path))
        wl.rounds.append(jobs)
    return wl


# -- rank-sweep ------------------------------------------------------------

RANK_SIZES = (8, 9, 10, 11, 12)
RANK_SEMANTICS = ("grounded", "preferred", "stable")
RANK_MAX_INDEGREE = 4  # K = 5 on every graph
POSTULATE_CORPORA = (5, 10, 20)


def rank_sweep(seed: int, rounds: int = 8) -> Workload:
    """A round is fifteen absolute-ranking jobs, each on its own graph,
    with a postulates job after every fifth. Sizes (5) and semantics (3)
    cycle with the job's place, so a round holds every pair once, and
    its three postulates jobs take each corpus size once."""
    wl = Workload("rank-sweep")
    for r in range(rounds):
        jobs = []
        for j in range(15):
            n = RANK_SIZES[j % len(RANK_SIZES)]
            degrees = [d * (RANK_MAX_INDEGREE + 1) // n for d in range(n)]
            graph = degree_graph(degrees, _rng("rank-sweep", seed, r, j))
            path = _write_graph(wl, f"r{r}-j{j}-n{n}", graph, "tgf")
            jobs.append(Job(("rank", "--input", path, "--absolute",
                             "--semantics", RANK_SEMANTICS[j % 3],
                             "--output", "json"), path))
            if j % 5 == 4:
                jobs.append(Job(("postulates", "--corpus",
                                 str(POSTULATE_CORPORA[j // 5]), "--seed",
                                 str(seed * 100 + r * 3 + j // 5),
                                 "--output", "json"), ""))
        wl.rounds.append(jobs)
    return wl


# -- kb-instantiate --------------------------------------------------------

def _atom_table(k: int, n_atoms: int) -> int:
    return sum(1 << row for row in range(1 << n_atoms) if row >> k & 1)


# formula shapes over distinct atoms, written as the CLI renders them
_SHAPES = (
    (1, "{0}", lambda full, a: a),
    (1, "!{0}", lambda full, a: full ^ a),
    (2, "{0} | {1}", lambda full, a, b: a | b),
    (2, "{0} & {1}", lambda full, a, b: a & b),
    (2, "{0} -> {1}", lambda full, a, b: (full ^ a) | b),
    (2, "!{0} | !{1}", lambda full, a, b: (full ^ a) | (full ^ b)),
    (3, "{0} & {1} -> {2}", lambda full, a, b, c: (full ^ (a & b)) | c),
    (3, "{0} | {1} | {2}", lambda full, a, b, c: a | b | c),
)


def _draw_formula(rng: random.Random, atoms: tuple[str, ...]) -> Formula:
    arity, template, table = rng.choice(_SHAPES)
    picks = rng.sample(range(len(atoms)), arity)
    full = (1 << (1 << len(atoms))) - 1
    return Formula(template.format(*(atoms[i] for i in picks)),
                   table(full, *(_atom_table(i, len(atoms)) for i in picks)))


def complement_text(text: str) -> str:
    """The claim that attacks a premise, as the CLI renders it."""
    if text.startswith("!") and text[1:].isalnum():
        return text[1:]
    return "!" + text if text.isalnum() else f"!({text})"


def argument_count(base: Base) -> int:
    """Arguments the instantiation builds: one per premise, plus each
    subset-minimal consistent premise set entailing the complement of
    a base formula (counted once per distinct premise set and claim)."""
    formulas = base.formulas
    full = base.full
    found = {(1 << i, f.text) for i, f in enumerate(formulas)}
    masks = sorted(range(1, 1 << len(formulas)),
                   key=lambda v: (v.bit_count(), v))
    tables = {}
    for mask in masks:
        low = mask & -mask
        rest = mask ^ low
        tables[mask] = (formulas[low.bit_length() - 1].table
                        & (tables[rest] if rest else full))
    for beta in formulas:
        goal = full ^ beta.table
        kept: list[int] = []
        for mask in masks:
            if any(prev & mask == prev for prev in kept):
                continue
            if tables[mask] and tables[mask] & ~goal == 0:
                kept.append(mask)
        claim = complement_text(beta.text)
        found.update((mask, claim) for mask in kept)
    return len(found)


KB_ARGUMENTS = (9, 16)  # accepted argument counts, inclusive
KB_MAX_ARGS = 20


def _draw_base(rng: random.Random, n_formulas: int, n_atoms: int,
               n_strata: int) -> Base:
    atoms = tuple("abcdef"[:n_atoms])
    while True:
        drawn: dict[str, tuple[int, Formula]] = {}
        while len(drawn) < n_formulas:
            f = _draw_formula(rng, atoms)
            drawn.setdefault(f.text, (rng.randrange(n_strata), f))
        levels = sorted({level for level, _ in drawn.values()})
        base = Base(atoms, tuple(
            tuple(f for level, f in drawn.values() if level == want)
            for want in levels))
        lo, hi = KB_ARGUMENTS
        if lo <= argument_count(base) <= hi:
            return base


def kb_instantiate(seed: int, rounds: int = 4) -> Workload:
    """Each job instantiates its own base. The command (check, sceptical
    or credulous inference of a drawn goal), the atom count, the stratum
    count and the formula count cycle with the job's place, so a round
    of 18 holds each (command, atom count, formula count) once."""
    wl = Workload("kb-instantiate")
    for r in range(rounds):
        jobs = []
        for j in range(18):
            rng = _rng("kb-instantiate", seed, r, j)
            base = _draw_base(rng, 7 + j // 6, 5 + j % 2, 1 + j // 2 % 3)
            name = f"r{r}-j{j}.txt"
            wl.files[name] = base.text()
            wl.inputs[name] = base
            argv = ("instantiate", "--kb", name, "--max-args",
                    str(KB_MAX_ARGS), "--output", "json")
            if j % 3 == 0:
                jobs.append(Job(argv + ("--emit", "check"), name))
                continue
            goal = _draw_formula(rng, base.atoms)
            mode = ("sceptical", "credulous")[j % 3 - 1]
            jobs.append(Job(argv + ("--emit", "infer", "--goal", goal.text,
                                    "--mode", mode), name, goal))
        wl.rounds.append(jobs)
    return wl


# -- large-sparse ----------------------------------------------------------

SPARSE_SIZES = (1000, 1333, 1667, 2000)
SPARSE_MEAN_INDEGREE = 2.5
SPARSE_MAX_INDEGREE = 5  # K = 6 on every graph


def _poisson_degrees(n: int) -> list[int]:
    """Quantiles of a Poisson(2.5) in-degree law, capped at the maximum:
    the same multiset for every seed, with mean close to 2.5."""
    cdf, k, term = [], 0, math.exp(-SPARSE_MEAN_INDEGREE)
    total = 0.0
    while k < SPARSE_MAX_INDEGREE:
        total += term
        cdf.append(total)
        k += 1
        term *= SPARSE_MEAN_INDEGREE / k
    return [next((d for d, c in enumerate(cdf) if (i + 0.5) / n < c),
                 SPARSE_MAX_INDEGREE) for i in range(n)]


SPARSE_OUTPUTS = (("apx", "json"), ("tgf", "text"), ("tgf", "json"),
                  ("apx", "text"))


def large_sparse(seed: int, rounds: int = 3) -> Workload:
    """A round draws one graph per size, writes it as APX and TGF, and
    ranks every size once with each (input format, output) pair."""
    wl = Workload("large-sparse")
    for r in range(rounds):
        paths = {}
        for n in SPARSE_SIZES:
            graph = degree_graph(_poisson_degrees(n),
                                 _rng("large-sparse", seed, r, n))
            for fmt in ("apx", "tgf"):
                paths[n, fmt] = _write_graph(wl, f"r{r}-n{n}", graph, fmt)
        jobs = []
        for j in range(16):
            fmt, out = SPARSE_OUTPUTS[(j + j // 4) % 4]
            path = paths[SPARSE_SIZES[j % 4], fmt]
            jobs.append(Job(("rank", "--input", path, "--contextual", "",
                             "--output", out), path))
        wl.rounds.append(jobs)
    return wl


GENERATORS = {
    "enum-search": enum_search,
    "rank-sweep": rank_sweep,
    "kb-instantiate": kb_instantiate,
    "large-sparse": large_sparse,
}


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)


def write(wl: Workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in wl.files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def resolve(job: Job, workdir: Path) -> list[str]:
    """The job's argument vector with its input path made absolute."""
    if not job.input:
        return list(job.argv)
    path = str(workdir / job.input)
    return [path if arg == job.input else arg for arg in job.argv]
