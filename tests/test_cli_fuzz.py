"""A seeded fuzz of the CLI contract on near-valid and hostile input.

Each case takes a valid TGF, APX or knowledge-base text, applies one
mutation, writes it to a file and runs one command through ``cli.main``
in-process. Whatever the input, no exception may escape ``main``, the
exit code is 0, 1 or 2, an error prints exactly one ``error: `` line on
stderr and nothing on stdout, an answer prints nothing on stderr, and
a JSON answer is the four-key envelope.
"""
import contextlib
import io
import json
import random

from gradarg.cli import main
from gradarg.logic import MAX_DEPTH

CASES = 500
STRAYS = ("#", "(", ",", "\0", "\u00a0", "\u3000")
FRAMEWORK_COMMANDS = (
    ["rank", "--contextual", ""], ["rank", "--absolute"])
EMITS = ("ps", "check", "infer")
ATOMS = "abcd"
ENVELOPE_KEYS = ["command", "params", "result", "witnesses"]


def _graph(rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    labels = [f"x{i}" for i in range(rng.randint(1, 6))]
    attacks = sorted({(rng.choice(labels), rng.choice(labels))
                      for _ in range(rng.randint(0, 8))})
    return labels, attacks


def _tgf(labels, attacks) -> list[str]:
    return [*labels, "#", *(f"{a} {b}" for a, b in attacks)]


def _apx(labels, attacks) -> list[str]:
    return ([f"arg({a})." for a in labels]
            + [f"att({a},{b})." for a, b in attacks])


def _formula(rng: random.Random, depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(("", "!")) + rng.choice(ATOMS)
    op = rng.choice(("&", "|", "->"))
    return f"({_formula(rng, depth - 1)} {op} {_formula(rng, depth - 1)})"


def _kb(rng: random.Random) -> list[str]:
    formulas = {_formula(rng) for _ in range(rng.randint(1, 5))}
    return [f"{rng.randint(1, 3)}: {f}" for f in sorted(formulas)]


def _mutate(rng: random.Random, lines: list[str], kind: str) -> str:
    """The lines with one mutation, joined into a file's text."""
    lines = list(lines)
    at = rng.randrange(len(lines) + 1)
    choices = ["drop", "duplicate", "stray"]
    if kind == "tgf":
        choices += ["undeclared"]
    elif kind == "apx":
        choices += ["undeclared", "unbalanced"]
    else:
        choices += ["stratum 0", "unbalanced", "too deep", "17 atoms"]
    # a dropped line often leaves valid input, so answers get exercised too
    mutation = "drop" if rng.random() < 0.3 else rng.choice(choices)
    if mutation == "drop":
        del lines[min(at, len(lines) - 1)]
    elif mutation == "duplicate":
        lines.insert(at, lines[min(at, len(lines) - 1)])
    elif mutation == "stray":
        text = "\n".join(lines)
        pos = rng.randrange(len(text) + 1)
        return text[:pos] + rng.choice(STRAYS) + text[pos:] + "\n"
    elif mutation == "undeclared":
        lines.append("x0 zz" if kind == "tgf" else "att(x0,zz).")
    elif mutation == "unbalanced":
        lines.insert(at, "arg(x9." if kind == "apx"
                     else f"1: ({_formula(rng)}")
    elif mutation == "stratum 0":
        lines.insert(at, f"0: {_formula(rng)}")
    elif mutation == "too deep":
        lines.insert(at, "1: " + "!" * (MAX_DEPTH + 1) + "a")
    elif mutation == "17 atoms":
        used = len(set(ATOMS) & set("".join(lines)))
        lines += [f"2: p{i}" for i in range(17 - used)]
    return "\n".join(lines) + "\n"


def _goal(rng: random.Random) -> str:
    goal = _formula(rng)
    mutation = rng.randrange(4)
    if mutation == 1:
        pos = rng.randrange(len(goal) + 1)
        goal = goal[:pos] + rng.choice(STRAYS + (")",)) + goal[pos:]
    elif mutation == 2:
        goal = "!" * (MAX_DEPTH + 1) + goal
    elif mutation == 3:
        goal = " & ".join(f"q{i}" for i in range(17))
    return goal


def _case(rng: random.Random, tmp_path, index: int) -> list[str]:
    """One command line, with its input file written under tmp_path."""
    path = tmp_path / f"case{index}"
    kind = rng.choice(("tgf", "apx", "kb", "junk", "missing"))
    if kind in ("tgf", "apx"):
        lines = (_tgf if kind == "tgf" else _apx)(*_graph(rng))
        path.write_text(_mutate(rng, lines, kind), encoding="utf-8")
    elif kind == "kb":
        path.write_text(_mutate(rng, _kb(rng), kind), encoding="utf-8")
    elif kind == "junk":
        path.write_bytes(rng.randbytes(rng.randint(0, 40)))
    output = ["--output", rng.choice(("text", "json")), "--max-args", "10"]
    if kind == "kb" or (kind in ("junk", "missing") and rng.random() < 0.5):
        emit = rng.choice(EMITS)
        goal = [f"--goal={_goal(rng)}"] if emit == "infer" else []
        return ["instantiate", "--kb", str(path), "--emit", emit,
                *goal, *output]
    command = rng.choice(FRAMEWORK_COMMANDS + (None,))
    if command is None:
        command = ["solve", "--semantics", rng.choice(
            ("admissible", "complete", "grounded", "preferred", "stable"))]
        for grade in ("--l", "--m", "--n"):
            command += [grade, str(rng.randint(1, 3))]
    return [*command, "--input", str(path), *output]


def test_cli_contract_holds_on_mutated_input(tmp_path):
    rng = random.Random(2210)
    seen = set()
    for index in range(CASES):
        argv = _case(rng, tmp_path, index)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stdout, stderr = out.getvalue(), err.getvalue()
        where = f"case {index}: {argv}"
        seen.add((code, bool(stderr)))
        assert code in (0, 1, 2), where
        if stderr or code == 2:
            assert stderr.startswith("error: "), where
            assert stderr.count("\n") == 1 and stderr.endswith("\n"), where
            assert code in (1, 2) and stdout == "", where
        elif argv[argv.index("--output") + 1] == "json":
            assert list(json.loads(stdout)) == ENVELOPE_KEYS, where
    # answers and errors of both exit codes all occurred
    assert seen == {(0, False), (1, False), (1, True), (2, True)}
