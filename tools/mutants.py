"""A mutation probe: which one-token changes to a module does the tier-1
suite miss?

A mutation site is one of:
- a comparison operator swapped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``
  and ``is``/``is not``, each way;
- a boolean operator swapped, ``and``/``or``, at every position of one
  expression;
- ``+``/``-`` swapped, in a binary or an augmented operation;
- an integer literal 0, 1 or 2 raised by one.

A run applies one mutant at a time to a fresh copy of ``src/``,
``tests/`` and ``tools/`` in a temporary directory, never to the
checkout, and runs the tier-1 command there with ``-x`` under a
timeout of ``TIMEOUT`` seconds. A mutant is killed when the suite
fails, survives when it passes, and times out otherwise. The run
prints the three counts and every survivor.

Usage:
    python3 tools/mutants.py --list FILE
    python3 tools/mutants.py FILE [--sample N] [--seed S]
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools")
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider")
TIMEOUT = 180
SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
         ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
         ast.And: ("and", "or"), ast.Or: ("or", "and"),
         ast.Add: ("+", "-"), ast.Sub: ("-", "+")}


class Site(NamedTuple):
    """One mutant: the byte spans of the source to rewrite, and what
    each span's old token becomes."""

    line: int
    col: int
    old: str
    new: str
    spans: tuple[tuple[int, int], ...]


def _offsets(source: bytes) -> list[int]:
    """The byte offset at which each line starts, 1-based by index."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def sites(source: bytes) -> list[Site]:
    """Every mutation site of a module's source, in source order."""
    starts = _offsets(source)

    def start(node: ast.AST) -> int:
        return starts[node.lineno] + node.col_offset

    def end(node: ast.AST) -> int:
        return starts[node.end_lineno] + node.end_col_offset

    def between(left: ast.AST, right: ast.AST, op: ast.AST) -> Site | None:
        old, new = SWAPS[type(op)]
        lo, hi = end(left), start(right)
        # the gap between two operands holds only their operator, so the
        # first match is it; a word operator must match as a whole word
        pattern = re.escape(old.encode()).replace(b"\\ ", rb"\s+")
        if old[0].isalpha():
            pattern = rb"\b" + pattern + rb"\b"
        match = re.search(pattern, source[lo:hi])
        if match is None:
            return None
        line = source.count(b"\n", 0, lo + match.start()) + 1
        col = lo + match.start() - starts[line]
        return Site(line, col, old, new,
                    ((lo + match.start(), lo + match.end()),))

    found: list[Site] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found += [between(a, b, op) for a, b, op in
                      zip(operands, operands[1:], node.ops)
                      if type(op) in SWAPS]
        elif isinstance(node, ast.BoolOp):
            parts = [between(a, b, node.op)
                     for a, b in zip(node.values, node.values[1:])]
            if all(parts):
                found.append(parts[0]._replace(
                    spans=tuple(p.spans[0] for p in parts)))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append(between(node.left, node.right, node.op))
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            found.append(between(node.target, node.value, node.op))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0, 1, 2)
              and source[start(node):end(node)] == str(node.value).encode()):
            found.append(Site(node.lineno, node.col_offset, str(node.value),
                              str(node.value + 1),
                              ((start(node), end(node)),)))
    return sorted((s for s in found if s), key=lambda s: s.spans)


def mutate(source: bytes, site: Site) -> bytes:
    """The source with the new token in every span of site, last span
    first, so earlier offsets stay valid."""
    for lo, hi in reversed(site.spans):
        source = source[:lo] + site.new.encode() + source[hi:]
    return source


def describe(path: str, site: Site) -> str:
    return f"{path}:{site.line}:{site.col + 1}: {site.old} -> {site.new}"


def run(path: Path, source: bytes, site: Site) -> str:
    """'killed', 'survived' or 'timeout' for one mutant of the source
    its site was found in."""
    relative = path.resolve().relative_to(ROOT)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            shutil.copytree(ROOT / name, Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        (Path(tmp) / relative).write_bytes(mutate(source, site))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run([sys.executable, *TIER1], cwd=tmp, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("file", type=Path)
    parser.add_argument("--list", action="store_true",
                        help="print the mutation sites and stop")
    parser.add_argument("--sample", type=int, default=None,
                        help="run a seeded sample of this many sites")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    source = args.file.read_bytes()
    found = sites(source)
    if args.list:
        for site in found:
            print(describe(str(args.file), site))
        return 0
    if args.sample is not None and args.sample < len(found):
        found = sorted(random.Random(args.seed).sample(found, args.sample),
                       key=lambda s: s.spans)
    outcomes: dict[str, list[Site]] = {
        "killed": [], "survived": [], "timeout": []}
    for site in found:
        outcome = run(args.file, source, site)
        outcomes[outcome].append(site)
        print(f"{outcome:8} {describe(str(args.file), site)}", flush=True)
    print(", ".join(f"{len(v)} {k}" for k, v in outcomes.items()))
    for site in outcomes["survived"]:
        print(f"survivor: {describe(str(args.file), site)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
