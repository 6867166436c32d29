"""Spans around gradarg's public entry points, for the traced run.

``instrument`` rebinds the names through which the CLI and the library
modules call one another (``gradarg.cli.parse``,
``gradarg.instantiate.generate_arguments``, ...) to wrappers that open a
span, so one ``cli.main`` call records the composition of public
functions that the job ran. A span records its name, start, end, parent
and job id; spans stay in memory until the run writes them out. A
layer's self time is its spans' durations minus the time their child
spans cover. The kernel and logic operators run far too often to wrap;
``micro`` times them directly on the workload's own inputs.

Names that a later version of the package no longer has are skipped, so
their metrics read 0 rather than the run failing.
"""
from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from workloads import Base, Graph, Workload

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = 0
        self._stack: list[int] = []
        self._next = 0

    def run(self, name: str, fn: Callable, *args, **kwargs):
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.job, name, start, end))

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            totals[name] += (end - start - child_time[span_id]) * 1e3
        return totals

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "job", "name", "start", "end")
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class Patches:
    """Wrappers for named attributes, switched on and off together."""

    def __init__(self) -> None:
        self._items: list[tuple[object, str, object, object]] = []

    def add(self, owner, attr: str, wrapper) -> None:
        self._items.append((owner, attr, getattr(owner, attr), wrapper))

    def switch(self, on: bool) -> None:
        for owner, attr, original, wrapper in self._items:
            setattr(owner, attr, wrapper if on else original)


def _wrap(patches: Patches, tracer: Tracer, owner, attr: str,
          name: Callable[[tuple, dict], str],
          count: Callable[[object], tuple[str, int]] | None = None) -> None:
    original = getattr(owner, attr, None)
    if original is None:
        return

    def wrapper(*args, **kwargs):
        result = tracer.run(name(args, kwargs), original, *args, **kwargs)
        if count is not None:
            key, value = count(result)
            tracer.counts[key] += value
        return result

    patches.add(owner, attr, wrapper)


def _fixed(name: str) -> Callable[[tuple, dict], str]:
    return lambda args, kwargs: name


def _semantics_arg(prefix: str) -> Callable[[tuple, dict], str]:
    def name(args, kwargs):
        semantics = args[1] if len(args) > 1 else kwargs["semantics"]
        return prefix + semantics.value
    return name


def _classes(signatures) -> tuple[str, int]:
    return "ranking.classes", len({s.grades for s in signatures.values()})


def instrument(tracer: Tracer, gradarg) -> Patches:
    """Wrappers for the package's entry points, switched off; ``gradarg``
    is the imported package whose submodules the jobs will call."""
    patches = Patches()

    def wrap(*args, **kwargs) -> None:
        _wrap(patches, tracer, *args, **kwargs)

    cli, formats = gradarg.cli, gradarg.formats
    ranking, postulates = gradarg.ranking, gradarg.postulates
    instantiate = gradarg.instantiate

    wrap(cli, "parse", _fixed("formats.parse"))
    for module in (formats, instantiate):
        wrap(module, "ArgumentationFramework", _fixed("framework.construct"))

    def extensions(family):
        return "semantics.extensions", len(family.extensions)

    for module in (cli, instantiate):
        wrap(module, "enumerate_extensions", _semantics_arg("semantics."),
             extensions)

    for module in (ranking, postulates):
        wrap(module, "absolute_signature",
             _semantics_arg("ranking.absolute_"), _classes)
    wrap(ranking, "contextual_signature", _fixed("ranking.contextual"),
         _classes)
    for method in ("equivalence_classes", "hasse_edges"):
        wrap(ranking.ArgumentPartialOrder, method, _fixed("ranking.order"))

    wrap(cli, "named_counterexamples_match", _fixed("postulates.battery"))
    wrap(cli, "corpus_checks", _fixed("postulates.corpus"))
    for check in ("abstraction", "independence", "void_precedence",
                  "unattacked_equivalence"):
        wrap(postulates, f"check_{check}", _fixed(f"postulates.check_{check}"))

    wrap(cli, "parse_kb", _fixed("instantiate.parse_kb"))
    for module in (cli, instantiate):
        wrap(module, "preferred_subtheories",
             _fixed("instantiate.subtheories"))
        wrap(module, "build_defeat_graph", _fixed("instantiate.defeat_graph"),
             lambda graph: ("instantiate.defeats",
                            len(graph.framework.attack_indices)))
    wrap(instantiate, "generate_arguments", _fixed("instantiate.generate"),
         lambda args: ("instantiate.arguments", len(args)))
    wrap(cli, "ps_correspondence_check", _fixed("instantiate.check"))
    wrap(cli, "graded_inference", _fixed("instantiate.infer"))
    return patches


# -- operators timed directly ------------------------------------------------

MICRO_SECONDS = 0.3


def _per_call(calls: list[Callable[[], object]]) -> float:
    """Seconds per call, cycling through the calls for MICRO_SECONDS."""
    done = 0
    start = perf_counter()
    while True:
        for call in calls:
            call()
        done += len(calls)
        elapsed = perf_counter() - start
        if elapsed >= MICRO_SECONDS:
            return elapsed / done


def micro(gradarg, workload: Workload, seed: int) -> dict[str, float]:
    """Per-call cost of the kernel and logic operators on the first
    round's own frameworks, premise sets and goals."""
    rng = random.Random(f"micro/{workload.name}/{seed}")
    kernel, logic = gradarg.kernel, gradarg.logic
    frameworks = _frameworks(gradarg, workload)
    sets = [(fw, fw.set_from_mask(rng.getrandbits(len(fw))))
            for fw in frameworks]
    out = {
        "kernel.defense_us": 1e6 * _per_call(
            [lambda fw=fw, x=x, g=g: kernel.graded_defense(fw, g, g, x)
             for fw, x in sets for g in (1, 2)]),
        "kernel.neutrality_us": 1e6 * _per_call(
            [lambda fw=fw, x=x, g=g: kernel.graded_neutrality(fw, g, x)
             for fw, x in sets for g in (1, 2)]),
        "kernel.lfp_ms": 1e3 * _per_call(
            [lambda fw=fw, m=m, n=n: kernel.lfp_from(fw, m, n, fw.empty_set())
             for fw in frameworks for m, n in ((1, 1), (2, 1), (2, 2))]),
        "logic.parse_formula_us": 0.0,
        "logic.is_consistent_us": 0.0,
        "logic.entails_us": 0.0,
    }
    jobs = [job for job in workload.rounds[0]
            if isinstance(workload.inputs.get(job.input), Base)]
    if jobs:
        from reference import preferred_subtheories
        bases = [workload.inputs[job.input] for job in jobs]
        texts = [f.text for b in bases for f in b.formulas]
        goals = [job.goal.text for job in jobs if job.goal is not None]
        premise_sets = [[logic.parse_formula(t) for t in s]
                        for b in bases for s in preferred_subtheories(b)]
        parsed_goals = [logic.parse_formula(t) for t in goals]
        out["logic.parse_formula_us"] = 1e6 * _per_call(
            [lambda t=t: logic.parse_formula(t) for t in texts + goals])
        out["logic.is_consistent_us"] = 1e6 * _per_call(
            [lambda s=s: logic.is_consistent(s) for s in premise_sets])
        out["logic.entails_us"] = 1e6 * _per_call(
            [lambda s=s, g=g: logic.entails(s, g)
             for s, g in zip(premise_sets, parsed_goals * len(premise_sets))])
    return out


def _frameworks(gradarg, workload: Workload) -> list:
    """The frameworks the first round's jobs run on, built by the package:
    parsed graphs, or the defeat graphs of the knowledge bases."""
    out = []
    for name in sorted({job.input for job in workload.rounds[0]
                        if job.input}):
        item = workload.inputs[name]
        if isinstance(item, Graph) and name.endswith(".tgf"):
            out.append(gradarg.formats.parse_tgf(item.tgf()))
        elif isinstance(item, Base):
            kb = gradarg.instantiate.parse_kb(item.text())
            out.append(gradarg.instantiate.build_defeat_graph(
                kb, max_args=64).framework)
    return out
