"""Command-line front end.

Four subcommands: solve (extension families), rank (argument orders),
postulates (checker battery and random sweeps), instantiate (stratified
knowledge bases). JSON output always carries the same top-level keys:
command, params, result, witnesses, and ``_envelope`` alone writes them.
Every command answers through ``_reply``, which prints the envelope or
the text lines, except ``rank`` and the text form of ``instantiate
--emit graph``. Exit codes: 0 success, 1 negative domain answer or
resource bound, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (FormulaParseError, FrameworkParseError, GradargError,
                     KnowledgeBaseError)
from .formats import parse, write
from .framework import ArgumentationFramework
from .instantiate import (_braced, _texts, build_defeat_graph,
                          graded_inference, parse_kb, preferred_subtheories,
                          ps_correspondence_check)
from .kernel import GradeParams
from .logic import format_formula, parse_formula
from .postulates import (CheckResult, PostulateVerdict, corpus_checks,
                         named_counterexamples_match)
from .ranking import (RANKED_SEMANTICS, ArgumentPartialOrder, _grid,
                      _select, absolute_rank, contextual_rank)
from .semantics import (Existence, JustificationMode, Semantics,
                        enumerate_extensions)

_USAGE_ERRORS = (FrameworkParseError, KnowledgeBaseError, FormulaParseError,
                 ValueError)


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"value must be >= {low}")
        return value

    return parse


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read '{path}': {exc.strerror}") from None


def _load_framework(args: argparse.Namespace) -> ArgumentationFramework:
    fmt = None if args.format == "auto" else args.format
    return parse(_read_input(args.input), fmt)


def _envelope(command: str, params: dict[str, Any], result: Any,
              witnesses: list[Any]) -> str:
    """The JSON reply of every command, the one place its four keys are
    spelled."""
    return json.dumps({"command": command, "params": params, "result": result,
                       "witnesses": witnesses}, indent=2)


def _reply(args: argparse.Namespace, command: str, params: dict[str, Any],
           result: Any, witnesses: list[Any], lines: Iterable[str],
           code: int = 0) -> int:
    """Print the envelope or the text lines, as ``--output`` asks, and
    return the exit code. The lines are read only on text runs, so a
    command passes them lazily when they grow with the input."""
    if args.output == "json":
        print(_envelope(command, params, result, witnesses))
    else:
        for line in lines:
            print(line)
    return code


def _add_io_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", "-i", default="-",
                     help="framework file, or - for stdin (default)")
    sub.add_argument("--format", choices=("auto", "tgf", "apx"),
                     default="auto")
    sub.add_argument("--max-args", type=_at_least(1), default=None,
                     help="override the enumeration cap")


def _cmd_solve(args: argparse.Namespace) -> int:
    fw = _load_framework(args)
    family = enumerate_extensions(
        fw, Semantics(args.semantics), GradeParams(args.l, args.m, args.n),
        max_args=args.max_args)
    extensions = [e.labels for e in family.extensions]
    witness = family.witness
    witnesses = [] if witness is None else [{
        "clause": witness.clause,
        "arguments": (None if witness.arguments is None
                      else witness.arguments.labels)}]
    found = family.existence is Existence.FOUND
    detail = witness.clause if witness else ""
    lines = (map(_braced, extensions) if found
             else [f"{family.existence.value}: {detail}"])
    return _reply(args, "solve",
                  {"semantics": args.semantics, "l": args.l, "m": args.m,
                   "n": args.n},
                  {"existence": family.existence.value,
                   "extensions": extensions},
                  witnesses, lines, 0 if found else 1)


_SIGNATURES = '\n    "signatures": '


def _grade_lists(order: ArgumentPartialOrder) -> dict[int, str]:
    """Each distinct signature's sorted grade points, keyed by its bits,
    as the indented encoder writes them at a signature's depth.

    Ascending bits are the points in sorted order, so a signature's
    list is the texts of its set bits joined in bit order. The encoder
    writes an int as ``str(int)``, so one format string gives a point's
    text from its coordinates, and each point of the grid is written
    once per call. An order's signatures come from one sweep and share
    its bound."""
    sigs = order.signatures.values()
    bound = max((sig.bound for sig in sigs), default=1)
    arity = 2 if order.kind == "contextual" else 3
    point = "\n        [" + ",".join(["\n          %d"] * arity) + "\n        ]"
    texts = [point % p for p in _grid(bound, arity)]
    lists = {}
    for bits in {sig.bits for sig in sigs}:
        chosen = _select(texts, bits)
        lists[bits] = "[" + ",".join(chosen) + "\n      ]" if bits else "[]"
    return lists


def _rank_json(params: dict[str, Any], order: ArgumentPartialOrder) -> str:
    """The rank envelope, byte for byte as ``_envelope`` writes it with
    each signature's sorted grade points.

    With indent set the encoder runs in pure Python, so the grade points
    are written by ``_grade_lists`` instead, once per distinct signature,
    and spliced in. The envelope is written with an empty signatures
    map, found by its key line: the encoder escapes every control
    character, so a label cannot hold the newline that starts it.
    Keys are encoded alone, as the encoder encodes them."""
    result = {"kind": order.kind, "signatures": {},
              "classes": [list(c) for c in order.equivalence_classes()],
              "hasse": [list(e) for e in order.hasse_edges()]}
    head, tail = _envelope("rank", params, result, []).split(
        _SIGNATURES + "{}", 1)
    encoded = _grade_lists(order)
    entries = [f"\n      {json.dumps(label)}: {encoded[sig.bits]}"
               for label, sig in order.signatures.items()]
    body = "{" + ",".join(entries) + "\n    }" if entries else "{}"
    return head + _SIGNATURES + body + tail


def _cmd_rank(args: argparse.Namespace) -> int:
    fw = _load_framework(args)
    if args.contextual is not None:
        labels = [part.strip() for part in args.contextual.split(",")
                  if part.strip()]
        try:
            context = fw.set_of(labels)
        except KeyError as exc:
            raise ValueError(f"--contextual: {exc.args[0]}") from None
        order = contextual_rank(fw, context)
        params: dict[str, Any] = {"mode": "contextual", "start": labels}
    else:
        semantics = Semantics(args.semantics)
        order = absolute_rank(fw, semantics, max_args=args.max_args)
        params = {"mode": "absolute", "semantics": semantics.value}
    if args.output == "dot":
        print(order.to_dot(), end="")
    elif args.output == "json":
        print(_rank_json(params, order))
    else:
        for i, members in enumerate(order.equivalence_classes()):
            print(f"[{i}] " + ", ".join(members))
        for i, j in order.hasse_edges():
            print(f"[{i}] > [{j}]")
    return 0


def _witness_json(verdict: PostulateVerdict) -> dict[str, Any]:
    w = verdict.witness
    assert w is not None
    return {
        "postulate": verdict.postulate,
        "semantics": w.semantics.value,
        "pair": list(w.pair),
        "relation": w.relation.name,
        "detail": w.detail,
        "framework": {"arguments": list(w.framework.labels),
                      "attacks": [list(p) for p in w.framework.attacks]},
    }


def _verdict_json(verdict: PostulateVerdict) -> dict[str, Any]:
    return {"postulate": verdict.postulate,
            "semantics": [s.value for s in verdict.semantics],
            "result": verdict.result.value}


def _cmd_postulates(args: argparse.Namespace) -> int:
    matched, battery = named_counterexamples_match()
    corpus = corpus_checks(count=args.corpus, seed=args.seed)
    holds = matched and all(v.result is CheckResult.HOLDS for v in corpus)

    def lines() -> Iterator[str]:
        yield "fixture battery:"
        yield from (f"  {verdict}" for verdict in battery)
        yield f"battery matches expected verdicts: {str(matched).lower()}"
        if corpus:
            yield (f"random corpus ({args.corpus} frameworks, "
                   f"seed {args.seed}):")
            yield from (f"  {verdict}" for verdict in corpus)

    return _reply(
        args, "postulates", {"corpus": args.corpus, "seed": args.seed},
        {"battery": [_verdict_json(v) for v in battery],
         "battery_matches_expected": matched,
         "corpus": [_verdict_json(v) for v in corpus]},
        [_witness_json(v) for v in battery + corpus
         if v.witness is not None],
        lines(), 0 if holds else 1)


def _cmd_instantiate(args: argparse.Namespace) -> int:
    kb = parse_kb(_read_input(args.kb))
    base_params = {"kb": args.kb, "emit": args.emit}
    if args.emit == "ps":
        subtheories = [_texts(s) for s in preferred_subtheories(kb)]
        return _reply(args, "instantiate", base_params,
                      {"subtheories": subtheories}, [],
                      map(_braced, subtheories))
    if args.emit == "graph":
        graph = build_defeat_graph(kb, max_args=args.max_args)
        labelled = zip(graph.framework.labels, graph.arguments)
        if args.output == "text":
            sys.stdout.write(write(graph.framework, args.graph_format))
            for label, arg in labelled:
                print(f"{label} = {arg}", file=sys.stderr)
            return 0
        return _reply(
            args, "instantiate", base_params,
            {"arguments": {label: {"premises": _texts(arg.premises),
                                   "claim": format_formula(arg.claim)}
                           for label, arg in labelled},
             "defeats": [list(p) for p in graph.framework.attacks],
             "attacks": [list(p) for p in sorted(graph.attack_pairs)]}, [], ())
    if args.emit == "check":
        report = ps_correspondence_check(kb, max_args=args.max_args)
        return _reply(
            args, "instantiate", base_params,
            {"matches": report.matches,
             "stable_equals_preferred": report.stable_equals_preferred,
             "subtheories": [_texts(s) for s in report.subtheory_premise_sets],
             "stable_premise_sets": [
                 _texts(s) for s in report.stable_premise_sets]},
            [{"detail": report.detail}],
            [str(report.matches).lower(), report.detail],
            0 if report.matches else 1)
    # infer
    if args.goal is None:
        raise ValueError("--emit infer requires --goal")
    report = graded_inference(
        kb, GradeParams(args.l, args.m, args.n), parse_formula(args.goal),
        JustificationMode(args.mode), max_args=args.max_args)
    return _reply(
        args, "instantiate",
        {**base_params, "goal": format_formula(report.goal),
         "mode": args.mode, "l": args.l, "m": args.m, "n": args.n},
        {"holds": report.holds,
         "premise_sets": [_texts(s) for s in report.premise_sets]},
        [], [str(report.holds).lower()], 0 if report.holds else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradarg",
        description="Graded argumentation solver: extension families, "
                    "argument rankings, postulate checks, and stratified "
                    "knowledge-base instantiation.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser(
        "solve", help="enumerate extension families")
    _add_io_options(solve)
    solve.add_argument("--semantics", required=True,
                       choices=[s.value for s in Semantics])
    solve.add_argument("--l", type=_at_least(1), required=True)
    solve.add_argument("--m", type=_at_least(1), required=True)
    solve.add_argument("--n", type=_at_least(1), required=True)
    solve.add_argument("--output", choices=("text", "json"), default="text")
    solve.set_defaults(func=_cmd_solve)

    rank = subparsers.add_parser("rank", help="derive argument orders")
    _add_io_options(rank)
    mode = rank.add_mutually_exclusive_group(required=True)
    mode.add_argument("--contextual", metavar="LABELS", default=None,
                      help="comma-separated context, empty string for none")
    mode.add_argument("--absolute", action="store_true")
    rank.add_argument("--semantics", default="preferred",
                      choices=[s.value for s in RANKED_SEMANTICS])
    rank.add_argument("--output", choices=("text", "json", "dot"),
                      default="text")
    rank.set_defaults(func=_cmd_rank)

    postulates = subparsers.add_parser(
        "postulates", help="run the postulate battery")
    postulates.add_argument("--corpus", type=_at_least(0), default=10,
                            help="random frameworks to sweep (0 disables)")
    postulates.add_argument("--seed", type=int, default=0)
    postulates.add_argument("--output", choices=("text", "json"),
                            default="text")
    postulates.set_defaults(func=_cmd_postulates)

    instantiate = subparsers.add_parser(
        "instantiate", help="work with stratified knowledge bases")
    instantiate.add_argument("--kb", required=True,
                             help="knowledge-base file, or - for stdin")
    instantiate.add_argument("--emit",
                             choices=("graph", "ps", "check", "infer"),
                             default="check")
    instantiate.add_argument("--graph-format", choices=("tgf", "apx"),
                             default="tgf")
    instantiate.add_argument("--goal", default=None)
    instantiate.add_argument("--mode", choices=("sceptical", "credulous"),
                             default="sceptical")
    instantiate.add_argument("--l", type=_at_least(1), default=1)
    instantiate.add_argument("--m", type=_at_least(1), default=1)
    instantiate.add_argument("--n", type=_at_least(1), default=1)
    instantiate.add_argument("--output", choices=("text", "json"),
                             default="text")
    instantiate.add_argument("--max-args", type=_at_least(1), default=None)
    instantiate.set_defaults(func=_cmd_instantiate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: each parse returns a fresh namespace, so
    in-process callers can run ``main`` repeatedly without rebuilding it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GradargError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
