"""Reading and writing attack graphs in TGF and APX form.

TGF: one node label per line, a lone ``#`` separator, then ``src dst``
edge lines (extra tokens after the endpoints are ignored, as TGF edge
labels). APX: ``arg(name).`` and ``att(src,dst).`` facts, whitespace
insensitive, order independent. The writers refuse, with ValueError, a
label their format cannot carry, rather than write text its parser
would reject or read back differently.
"""
from __future__ import annotations

import re

from .errors import FrameworkParseError
from .framework import ArgumentationFramework

_APX_NAME = r"[^\s,()]+"
_APX_FACT = re.compile(
    rf"\s*(arg|att)\s*\(\s*({_APX_NAME})\s*(?:,\s*({_APX_NAME})\s*)?\)\s*\.")


def parse_tgf(text: str) -> ArgumentationFramework:
    labels: list[str] = []
    seen: set[str] = set()
    attacks: list[tuple[str, str]] = []
    in_edges = False
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not in_edges:
            if line == "#":
                in_edges = True
                continue
            label = line.split()[0]
            if label in seen:
                raise FrameworkParseError(
                    f"duplicate argument {label!r}", lineno)
            seen.add(label)
            labels.append(label)
        else:
            tokens = line.split()
            if len(tokens) < 2:
                raise FrameworkParseError(
                    "edge line needs a source and a target", lineno)
            src, dst = tokens[0], tokens[1]
            for endpoint in (src, dst):
                if endpoint not in seen:
                    raise FrameworkParseError(
                        f"undeclared argument {endpoint!r} in edge", lineno)
            attacks.append((src, dst))
    if not in_edges:
        raise FrameworkParseError("missing '#' separator", lineno or None)
    return ArgumentationFramework(labels, attacks)


def parse_apx(text: str) -> ArgumentationFramework:
    labels: list[str] = []
    seen: set[str] = set()
    attacks: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        pos = 0
        while pos < len(line):
            match = _APX_FACT.match(line, pos)
            if not match:
                raise FrameworkParseError(
                    f"malformed fact near {line[pos:].strip()[:30]!r}", lineno)
            kind, first, second = match.group(1), match.group(2), match.group(3)
            if kind == "arg":
                if second is not None:
                    raise FrameworkParseError(
                        "arg fact takes exactly one name", lineno)
                if first in seen:
                    raise FrameworkParseError(
                        f"duplicate argument {first!r}", lineno)
                seen.add(first)
                labels.append(first)
            else:
                if second is None:
                    raise FrameworkParseError(
                        "att fact takes exactly two names", lineno)
                attacks.append((first, second, lineno))
            pos = match.end()
    for src, dst, lineno in attacks:
        for endpoint in (src, dst):
            if endpoint not in seen:
                raise FrameworkParseError(
                    f"undeclared argument {endpoint!r} in att fact", lineno)
    return ArgumentationFramework(labels, [(s, d) for s, d, _ in attacks])


def detect_format(text: str) -> str:
    """Guess 'apx' or 'tgf' from the first non-blank line."""
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            return "apx" if re.match(r"(arg|att)\s*\(", line) else "tgf"
    return "tgf"


def write_tgf(fw: ArgumentationFramework) -> str:
    for label in fw.labels:
        if label == "#" or label.split() != [label]:
            raise ValueError(f"label {label!r} cannot be written as TGF")
    lines = list(fw.labels)
    lines.append("#")
    lines.extend(f"{s} {d}" for s, d in fw.attacks)
    return "\n".join(lines) + "\n"


def write_apx(fw: ArgumentationFramework) -> str:
    for label in fw.labels:
        if not re.fullmatch(_APX_NAME, label):
            raise ValueError(f"label {label!r} cannot be written as APX")
    lines = [f"arg({lab})." for lab in fw.labels]
    lines.extend(f"att({s},{d})." for s, d in fw.attacks)
    return "\n".join(lines) + "\n"


def write(fw: ArgumentationFramework, fmt: str) -> str:
    if fmt == "tgf":
        return write_tgf(fw)
    if fmt == "apx":
        return write_apx(fw)
    raise ValueError(f"unknown format {fmt!r}")


def parse(text: str, fmt: str | None = None) -> ArgumentationFramework:
    fmt = fmt or detect_format(text)
    if fmt == "tgf":
        return parse_tgf(text)
    if fmt == "apx":
        return parse_apx(text)
    raise ValueError(f"unknown format {fmt!r}")
