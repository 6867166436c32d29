"""Self-test of the benchmark's own inputs and reference answers.

    python3 perfbench/selftest.py

Checks, printing one line per failure and exiting 1 if there is any:

1. Seeds: for every workload, the same seed gives byte-identical input
   files and the next seed gives different ones.
2. Reference: ``reference.py`` agrees with the independent
   implementations in ``tests/oracles.py`` on small seeded graphs
   (extension families for every semantics at every triple in [1, 3]^3,
   absolute and contextual signatures) and bases (preferred subtheories,
   entailment of drawn goals).
3. Generator: formula texts are the CLI's own rendering, the claims
   that attack them are rendered as the package renders complements, and
   the argument count the generator filters on is the package's.
"""
from __future__ import annotations

import sys
from itertools import product
from pathlib import Path

import workloads
from reference import (SubsetTable, absolute_grades, contextual_grades,
                       entails, preferred_subtheories, solve_answer)

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from gradarg import generate_arguments, parse_kb  # noqa: E402
from gradarg.logic import (complement, format_formula,  # noqa: E402
                           parse_formula)


def check_seeds(problems: list[str]) -> None:
    for name in workloads.GENERATORS:
        first = workloads.build(name, 7).files
        again = workloads.build(name, 7).files
        other = workloads.build(name, 8).files
        if first != again:
            problems.append(f"{name}: seed 7 gave different inputs twice")
        if first == other:
            problems.append(f"{name}: seeds 7 and 8 gave the same inputs")


def check_graphs(problems: list[str]) -> None:
    for i in range(24):
        n = 2 + i % 5
        graph = workloads.edge_count_graph(
            n, round((0.15 + 0.05 * (i % 4)) * n * n),
            workloads._rng("selftest", i))
        labels = graph.labels
        attacks = [(labels[s], labels[d]) for s, d in graph.edges]
        table = SubsetTable(graph)
        for sem, (l, m, n_) in product(workloads.SEMANTICS,
                                       product(range(1, 4), repeat=3)):
            _, family = solve_answer(table, sem, l, m, n_)
            mine = {frozenset(table.labels_of(v)) for v in family}
            if mine != oracles.extension_family(labels, attacks, sem,
                                                l, m, n_):
                problems.append(f"graph {i}: {sem} ({l},{m},{n_}) family")
        for sem in ("grounded", "preferred", "stable"):
            expected = oracles.absolute_signature(labels, attacks, sem)
            if absolute_grades(table, sem) != {
                    lab: frozenset(g) for lab, g in expected.items()}:
                problems.append(f"graph {i}: absolute {sem} signature")
        expected = oracles.contextual_signature(labels, attacks)
        if contextual_grades(graph) != {
                lab: frozenset(g) for lab, g in expected.items()}:
            problems.append(f"graph {i}: contextual signature")


def check_bases(problems: list[str]) -> None:
    wl = workloads.build("kb-instantiate", 7)
    for job in [job for rnd in wl.rounds[:3] for job in rnd]:
        base = wl.inputs[job.input]
        for f in base.formulas:
            parsed = parse_formula(f.text)
            if format_formula(parsed) != f.text:
                problems.append(f"{job.input}: {f.text!r} is not canonical")
            if (format_formula(complement(parsed))
                    != workloads.complement_text(f.text)):
                problems.append(f"{job.input}: complement of {f.text!r}")
        kb = parse_kb(base.text())
        if len(generate_arguments(kb, max_args=64)) != \
                workloads.argument_count(base):
            problems.append(f"{job.input}: argument count")
        strata = [tuple(parse_formula(f.text) for f in s)
                  for s in base.strata]
        subtheories = sorted(sorted(map(format_formula, s))
                             for s in oracles.preferred_subtheories(strata))
        mine = preferred_subtheories(base)
        if mine != subtheories:
            problems.append(f"{job.input}: preferred subtheories")
        if job.goal is not None:
            goal = parse_formula(job.goal.text)
            for texts in mine:
                if entails(base, texts, job.goal.table) != oracles.entails(
                        [parse_formula(t) for t in texts], goal):
                    problems.append(f"{job.input}: entailment of "
                                    f"{job.goal.text!r}")


def main() -> int:
    problems: list[str] = []
    for check in (check_seeds, check_graphs, check_bases):
        check(problems)
        print(f"{check.__name__}: "
              f"{'ok' if not problems else f'{len(problems)} problems'}")
    for problem in problems:
        print("FAILED " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
