import contextlib
import hashlib
import io
import json
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from gradarg.cli import _rank_json, main
from gradarg.errors import (FormulaParseError, FrameworkParseError,
                            GradargError, KnowledgeBaseError)
from gradarg.framework import ArgumentationFramework
from gradarg.logic import MAX_DEPTH
from gradarg.ranking import (RANKED_SEMANTICS, ArgumentPartialOrder,
                            JustificationSignature, absolute_rank,
                            contextual_rank)
from gradarg.semantics import Semantics

THREE_CYCLE = "a\nb\nc\n#\na b\nb c\nc a\n"
SHARED_TARGET_CHAIN = "a3\nb3\nc3\nd3\ne3\n#\nb3 a3\nc3 a3\nd3 b3\ne3 c3\n"
CHAIN_PAIR = "a1\nb1\nc1\na2\nb2\nc2\nd2\n#\nc1 b1\nb1 a1\nc2 b2\nd2 b2\nb2 a2\n"
SELF_CONTRA = "a\na1\na2\nb\n#\na a\na1 b\na2 b\n"
TWO_PS_BASE = "1: !a | !b\n2: a\n2: b\n"


def run_cli(argv: list[str], stdin: str | None = None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_successive_calls_without_leaks(monkeypatch):
    """main reuses one parser; options given in one call must not carry
    into the next, so each call matches the same call with every default
    spelled out."""
    import gradarg.cli as cli
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    code, out, _ = run_cli(["rank", "--contextual", "", "--semantics",
                            "stable", "--output", "json"], CHAIN_PAIR)
    assert code == 0
    assert json.loads(out)["params"] == {"mode": "contextual", "start": []}
    code, out, _ = run_cli(["rank", "--absolute", "--output", "json"],
                           CHAIN_PAIR)
    assert code == 0
    assert json.loads(out)["params"] == {"mode": "absolute",
                                         "semantics": "preferred"}
    solve = run_cli(["solve", "--semantics", "grounded", "--l", "2", "--m",
                     "2", "--n", "1"], THREE_CYCLE)
    assert solve == (0, "{a, b, c}\n", "")
    absolute = run_cli(["rank", "--absolute"], CHAIN_PAIR)
    assert not absolute[1].startswith("{")
    assert absolute == run_cli(["rank", "--absolute", "--semantics",
                                "preferred", "--output", "text"], CHAIN_PAIR)
    assert len(built) <= 1


# -- solve -----------------------------------------------------------------------


def test_solve_saturating_grounded_extension():
    code, out, err = run_cli(
        ["solve", "--semantics", "grounded", "--l", "2", "--m", "2",
         "--n", "1"], THREE_CYCLE)
    assert (code, out, err) == (0, "{a, b, c}\n", "")


def test_solve_reports_nonexistence_with_exit_one():
    code, out, _ = run_cli(
        ["solve", "--semantics", "grounded", "--l", "2", "--m", "2",
         "--n", "1"], SHARED_TARGET_CHAIN)
    assert code == 1
    assert out.startswith("none-exists: ")


def test_solve_attack_free_framework():
    code, out, _ = run_cli(
        ["solve", "--semantics", "grounded", "--l", "1", "--m", "1",
         "--n", "1"], "x\n#\n")
    assert (code, out) == (0, "{x}\n")


def test_solve_json_envelope():
    code, out, _ = run_cli(
        ["solve", "--semantics", "grounded", "--l", "2", "--m", "2",
         "--n", "1", "--output", "json"], THREE_CYCLE)
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["command", "params", "result", "witnesses"]
    assert data["command"] == "solve"
    assert data["params"] == {"semantics": "grounded", "l": 2, "m": 2, "n": 1}
    assert data["result"] == {"existence": "found",
                              "extensions": [["a", "b", "c"]]}
    assert data["witnesses"] == []


def test_solve_reads_files_and_detects_apx(tmp_path):
    apx = tmp_path / "cycle.apx"
    apx.write_text("arg(a).\narg(b).\narg(c).\n"
                   "att(a,b).\natt(b,c).\natt(c,a).\n")
    tgf = tmp_path / "cycle.tgf"
    tgf.write_text(THREE_CYCLE)
    base = ["solve", "--semantics", "stable", "--l", "2", "--m", "2",
            "--n", "1"]
    from_apx = run_cli(base + ["--input", str(apx)])
    from_tgf = run_cli(base + ["--input", str(tgf), "--format", "tgf"])
    assert from_apx == from_tgf == (0, "{a, b, c}\n", "")


def test_solve_rejects_malformed_input():
    code, out, err = run_cli(
        ["solve", "--semantics", "grounded", "--l", "1", "--m", "1",
         "--n", "1"], "a\n#\nb c\n")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3: ")


def test_unreadable_input_paths_are_usage_errors(tmp_path):
    missing = tmp_path / "missing.tgf"
    code, out, err = run_cli(
        ["solve", "--input", str(missing), "--semantics", "grounded",
         "--l", "1", "--m", "1", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read '{missing}': "
                   "No such file or directory\n")
    code, out, err = run_cli(
        ["instantiate", "--kb", str(tmp_path), "--emit", "check"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read '{tmp_path}': ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_solve_rejects_non_positive_grades():
    with pytest.raises(SystemExit) as info:
        main(["solve", "--semantics", "grounded", "--l", "0", "--m", "1",
              "--n", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("setting", ["0", "-3"])
def test_non_positive_cap_setting_is_a_usage_error(monkeypatch, setting):
    monkeypatch.setenv("GRADARG_MAX_ARGS", setting)
    code, out, err = run_cli(
        ["solve", "--semantics", "stable", "--l", "1", "--m", "1",
         "--n", "1"], "x\n#\n")
    assert (code, out) == (2, "")
    assert err == f"error: GRADARG_MAX_ARGS must be positive, got {setting}\n"


# -- rank ------------------------------------------------------------------------


def test_rank_contextual_prints_classes_and_hasse():
    code, out, _ = run_cli(["rank", "--contextual", ""], CHAIN_PAIR)
    assert code == 0
    assert out == ("[0] c1, c2, d2\n"
                   "[1] a2\n"
                   "[2] a1\n"
                   "[3] b1\n"
                   "[4] b2\n"
                   "[0] > [1]\n"
                   "[1] > [2]\n"
                   "[2] > [3]\n"
                   "[3] > [4]\n")


def test_rank_absolute_places_self_attacker_below_its_attackers():
    code, out, _ = run_cli(
        ["rank", "--absolute", "--semantics", "preferred"], SELF_CONTRA)
    assert code == 0
    assert out == "[0] a1, a2\n[1] a\n[2] b\n[0] > [1]\n[1] > [2]\n"


def test_rank_attack_free_collapses_to_one_class():
    code, out, _ = run_cli(["rank", "--contextual", ""], "x\ny\nz\n#\n")
    assert (code, out) == (0, "[0] x, y, z\n")
    code, out, _ = run_cli(["rank", "--contextual", "", "--output", "dot"],
                           "x\ny\nz\n#\n")
    assert code == 0
    assert out == ('digraph ranking {\n'
                   '  rankdir=TB;\n'
                   '  node [shape=box];\n'
                   '  c0 [label="x, y, z"];\n'
                   '}\n')


def test_rank_json_carries_signatures():
    code, out, _ = run_cli(
        ["rank", "--contextual", "", "--output", "json"],
        "a1\nb1\nc1\n#\nc1 b1\nb1 a1\n")
    assert code == 0
    data = json.loads(out)
    assert data["params"] == {"mode": "contextual", "start": []}
    assert data["result"]["kind"] == "contextual"
    assert data["result"]["classes"] == [["c1"], ["a1"], ["b1"]]
    assert data["result"]["hasse"] == [[0, 1], [1, 2]]
    # the unattacked top holds every grade pair up to the bound
    assert data["result"]["signatures"]["c1"] == [
        [1, 1], [1, 2], [2, 1], [2, 2]]


HOSTILE_LABELS = ('say "hi"', "back\\slash", "nul\x00", "{brace}", "}",
                  "ünï", "日本", "signatures", '"signatures"', 'x": 3',
                  ': 3', '\\n    "signatures": ', '\n    "signatures": {}',
                  "[", "]", ",")


@st.composite
def hostile_frameworks(draw):
    labels = draw(st.lists(
        st.sampled_from(HOSTILE_LABELS) | st.text(min_size=1, max_size=4),
        min_size=0, max_size=6, unique=True))
    pairs = [(a, b) for a in labels for b in labels]
    attacks = draw(st.lists(st.sampled_from(pairs), unique=True,
                            max_size=len(pairs))) if pairs else []
    return ArgumentationFramework(labels, attacks)


@settings(max_examples=150, deadline=None)
@given(hostile_frameworks(), st.integers(0, 63),
       st.sampled_from(["", "grounded", "preferred", "stable"]))
def test_rank_json_splice_is_byte_identical(fw, context, semantics):
    """The spliced rank envelope against one json.dumps of the envelope
    built from the decoded grades, for contextual and absolute orders on
    labels that hold quotes, backslashes, NUL, braces, non-ASCII text,
    the key's own name and the text of its key line."""
    if semantics:
        order = absolute_rank(fw, Semantics(semantics))
        params = {"mode": "absolute", "semantics": semantics}
    else:
        start = fw.set_from_mask(context & fw.full_mask)
        order = contextual_rank(fw, start)
        params = {"mode": "contextual", "start": list(start.labels)}
    assert _rank_json(params, order) == _rank_oracle(params, order)


def _rank_oracle(params, order) -> str:
    """The rank envelope as one json.dumps, from the decoded grades."""
    result = {"kind": order.kind,
              "signatures": {label: sorted(list(g) for g in sig.grades)
                             for label, sig in order.signatures.items()},
              "classes": [list(c) for c in order.equivalence_classes()],
              "hasse": [list(e) for e in order.hasse_edges()]}
    return json.dumps({"command": "rank", "params": params, "result": result,
                       "witnesses": []}, indent=2)


def _both_orders(fw):
    """The empty-context order and the absolute orders of fw, each with
    the params its rank command writes."""
    yield {"mode": "contextual", "start": []}, contextual_rank(fw)
    for semantics in RANKED_SEMANTICS:
        yield ({"mode": "absolute", "semantics": semantics.value},
               absolute_rank(fw, semantics))


def test_rank_json_writes_an_empty_signature_as_an_empty_list():
    """No sweep leaves an argument with no grade point (at m = K every
    argument is defended), so the order is built by hand: one empty
    signature, one full, each of pairs and of triples."""
    fw = ArgumentationFramework(["a", "b"], [("a", "b")])
    for kind, points in (("contextual", 4), ("absolute:grounded", 8)):
        order = ArgumentPartialOrder(fw, {
            "a": JustificationSignature("a", 0, 2, kind),
            "b": JustificationSignature("b", (1 << points) - 1, 2, kind)},
            kind)
        assert order.signatures["a"].grades == frozenset()
        text = _rank_json({"mode": "test"}, order)
        assert text == _rank_oracle({"mode": "test"}, order)
        assert '"a": []' in text


@pytest.mark.parametrize("fw", [
    ArgumentationFramework([], []),
    ArgumentationFramework(["a", "b", "c"], []),
    ArgumentationFramework(["a", "b", "c"], [("a", "b"), ("b", "c")]),
], ids=["no-arguments", "attack-free-K1", "chain-K2"])
def test_rank_json_matches_the_encoder_on_small_bounds(fw):
    """K = 1 on an attack-free graph, where every order has one point,
    and K = 2 on a chain, for the contextual (pair) and absolute
    (triple) orders."""
    for params, order in _both_orders(fw):
        assert _rank_json(params, order) == _rank_oracle(params, order)


def test_rank_json_matches_the_encoder_at_the_largest_bound():
    """K = 25, the largest bound under the 24-argument cap: one argument
    attacked by all 24, itself included, so the signatures spread over
    the 625 pairs and the 15,625 triples. Only the grounded order of the
    absolute ones is encoded: the oracle takes about 1.7 s on each 22 MB
    envelope, and the triples are written alike for every semantics."""
    labels = [f"a{i}" for i in range(24)]
    fw = ArgumentationFramework(labels, [(x, "a0") for x in labels])
    for params, order in islice(_both_orders(fw), 2):
        assert order.signatures["a0"].bound == 25
        assert _rank_json(params, order) == _rank_oracle(params, order)


def test_rank_dot_escapes_tgf_labels():
    code, out, _ = run_cli(["rank", "--contextual", "", "--output", "dot"],
                           'a"x\nb\\\n#\nb\\ a"x\n')
    assert code == 0
    assert out == ('digraph ranking {\n'
                   '  rankdir=TB;\n'
                   '  node [shape=box];\n'
                   '  c0 [label="b\\\\"];\n'
                   '  c1 [label="a\\"x"];\n'
                   '  c0 -> c1;\n'
                   '}\n')


def test_rank_respects_enumeration_cap():
    code, out, err = run_cli(
        ["rank", "--absolute", "--semantics", "stable", "--max-args", "2"],
        SELF_CONTRA)
    assert code == 1
    assert out == ""
    assert "enumeration cap 2" in err


def test_rank_unknown_context_label_is_a_usage_error():
    code, out, err = run_cli(["rank", "--contextual", "a,zz"], THREE_CYCLE)
    assert (code, out) == (2, "")
    assert err == "error: --contextual: unknown argument 'zz'\n"


# -- postulates ------------------------------------------------------------------


def test_postulates_fixture_battery():
    code, out, _ = run_cli(["postulates", "--corpus", "0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fixture battery:"
    assert lines[-1] == "battery matches expected verdicts: true"
    assert len([l for l in lines if l.startswith("  ")]) == 13
    assert "  abstraction [grounded, preferred, stable]: Holds" in lines
    assert any(l.startswith("  self contradiction [preferred]: Violated (")
               for l in lines)


def test_postulates_corpus_is_deterministic():
    first = run_cli(["postulates", "--corpus", "8", "--seed", "31"])
    second = run_cli(["postulates", "--corpus", "8", "--seed", "31"])
    assert first == second
    assert first[0] == 0
    assert "random corpus (8 frameworks, seed 31):" in first[1]


def test_postulates_rejects_a_negative_corpus(capsys):
    with pytest.raises(SystemExit) as info:
        main(["postulates", "--corpus", "-3"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: argument --corpus: value must be >= 0\n")


def test_postulates_report_a_battery_mismatch(monkeypatch):
    """A battery whose verdicts differ from the expected table exits 1
    and says so in both outputs."""
    import gradarg.postulates as postulates
    name, sems, _ = postulates.EXPECTED_BATTERY[0]
    monkeypatch.setattr(postulates, "EXPECTED_BATTERY", (
        (name, sems, postulates.CheckResult.VIOLATED),
        *postulates.EXPECTED_BATTERY[1:]))
    code, out, _ = run_cli(["postulates", "--corpus", "0"])
    assert code == 1
    assert out.splitlines()[-1] == "battery matches expected verdicts: false"
    code, out, _ = run_cli(
        ["postulates", "--corpus", "0", "--output", "json"])
    assert code == 1
    assert json.loads(out)["result"]["battery_matches_expected"] is False


def test_postulates_json_witnesses_are_complete():
    code, out, _ = run_cli(
        ["postulates", "--corpus", "0", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["command", "params", "result", "witnesses"]
    assert data["result"]["battery_matches_expected"] is True
    assert len(data["result"]["battery"]) == 13
    assert data["result"]["corpus"] == []
    for witness in data["witnesses"]:
        assert sorted(witness) == ["detail", "framework", "pair",
                                   "postulate", "relation", "semantics"]
        assert len(witness["pair"]) == 2
    assert {w["postulate"] for w in data["witnesses"]} >= {
        "self contradiction", "quality precedence", "void precedence"}


# -- instantiate -----------------------------------------------------------------


def test_instantiate_emits_both_subtheories():
    code, out, _ = run_cli(
        ["instantiate", "--kb", "-", "--emit", "ps"], TWO_PS_BASE)
    assert (code, out) == (0, "{!a | !b, a}\n{!a | !b, b}\n")


def test_instantiate_check_confirms_the_correspondence():
    code, out, _ = run_cli(
        ["instantiate", "--kb", "-", "--emit", "check"], TWO_PS_BASE)
    assert code == 0
    assert out.splitlines()[0] == "true"
    code, out, _ = run_cli(
        ["instantiate", "--kb", "-", "--emit", "check", "--output", "json"],
        TWO_PS_BASE)
    data = json.loads(out)
    assert data["result"]["matches"] is True
    assert data["result"]["stable_equals_preferred"] is True
    assert data["result"]["subtheories"] == [["!a | !b", "a"],
                                             ["!a | !b", "b"]]
    assert data["result"]["stable_premise_sets"] == data["result"][
        "subtheories"]


def test_instantiate_graph_writes_framework_with_legend():
    code, out, err = run_cli(
        ["instantiate", "--kb", "-", "--emit", "graph"], "1: a\n")
    assert (code, out, err) == (0, "A1\n#\n", "A1 = ({a}, a)\n")
    code, out, _ = run_cli(
        ["instantiate", "--kb", "-", "--emit", "graph",
         "--graph-format", "apx"], "1: a\n")
    assert (code, out) == (0, "arg(A1).\n")


def test_instantiate_graph_json_defeats():
    kb = "1: a\n1: b\n1: !a | !b\n1: !a\n"
    code, out, _ = run_cli(
        ["instantiate", "--kb", "-", "--emit", "graph", "--output", "json"],
        kb)
    assert code == 0
    data = json.loads(out)
    assert len(data["result"]["defeats"]) == 13
    assert data["result"]["defeats"] == data["result"]["attacks"]
    assert data["result"]["arguments"]["A7"] == {"premises": ["!a"],
                                                 "claim": "!a"}


def test_instantiate_inference_modes():
    code, out, _ = run_cli(
        ["instantiate", "--kb", "-", "--emit", "infer", "--goal", "b"],
        "1: a\n1: a -> b\n")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(
        ["instantiate", "--kb", "-", "--emit", "infer", "--goal", "a"],
        TWO_PS_BASE)
    assert (code, out) == (1, "false\n")
    code, out, _ = run_cli(
        ["instantiate", "--kb", "-", "--emit", "infer", "--goal", "a",
         "--mode", "credulous"], TWO_PS_BASE)
    assert (code, out) == (0, "true\n")


def test_instantiate_usage_errors():
    code, _, err = run_cli(
        ["instantiate", "--kb", "-", "--emit", "infer"], "1: a\n")
    assert code == 2
    assert "requires --goal" in err
    code, _, err = run_cli(["instantiate", "--kb", "-"], "0: a\n")
    assert code == 2
    assert err.startswith("error: line 1: ")
    code, _, err = run_cli(
        ["instantiate", "--kb", "-", "--emit", "infer",
         "--goal", "!" * 3000 + "a"], "1: a\n")
    assert (code, err) == (2, "error: formula is nested too deeply\n")
    for depth in (600, 900):
        code, _, err = run_cli(["instantiate", "--kb", "-", "--emit", "check"],
                               "1: " + "!" * depth + "a\n")
        assert (code, err) == (
            2, "error: line 1: formula is nested too deeply\n")


@pytest.mark.parametrize("grade", ["--l", "--m", "--n"])
def test_instantiate_grades_start_at_one(grade, capsys, monkeypatch):
    """Each grade of ``--emit infer`` takes 1 and refuses 0 with exit 2."""
    argv = ["instantiate", "--kb", "-", "--emit", "infer", "--goal", "a"]
    assert run_cli([*argv, grade, "1"], "1: a\n") == (0, "true\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("1: a\n"))
    with pytest.raises(SystemExit) as info:
        main([*argv, grade, "0"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {grade}: value must be >= 1\n")


def test_instantiate_cap_starts_at_one(capsys, monkeypatch):
    """``--max-args 1`` admits a base with one argument and 0 is a usage
    error, exit 2."""
    argv = ["instantiate", "--kb", "-", "--emit", "graph"]
    assert run_cli([*argv, "--max-args", "1"], "1: a\n") == (
        0, "A1\n#\n", "A1 = ({a}, a)\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("1: a\n"))
    with pytest.raises(SystemExit) as info:
        main([*argv, "--max-args", "0"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --max-args: value must be >= 1\n")


@pytest.mark.parametrize("emit", ["graph", "ps", "check", "infer"])
def test_nesting_bound_answers_or_exits_2_at_every_depth(emit):
    """A negation chain up to MAX_DEPTH levels (the atom is one) gets an
    answer; a deeper one exits 2 with one stderr line, never a
    traceback. Covers the bound and the 490-500 window, where hashing
    the formula once overran the interpreter's recursion limit."""
    argv = ["instantiate", "--kb", "-", "--emit", emit]
    if emit == "infer":
        argv += ["--goal", "a"]
    depths = [*range(MAX_DEPTH - 3, MAX_DEPTH + 4), *range(490, 501)]
    for depth in depths:
        text = "1: " + "!" * (depth - 1) + "a\n"
        code, out, err = run_cli(argv, text)
        if depth <= MAX_DEPTH:
            assert code in (0, 1) and out, depth
        else:
            assert (code, out, err) == (
                2, "", "error: line 1: formula is nested too deeply\n"), depth


def _error_classes(base: type) -> list[type]:
    found = []
    for sub in base.__subclasses__():
        if not sub.__name__.startswith("_"):
            found.append(sub)
        found += _error_classes(sub)
    return found


@pytest.mark.parametrize("error", _error_classes(GradargError),
                         ids=lambda error: error.__name__)
def test_exit_code_follows_the_error_class(monkeypatch, error):
    """The three parse errors are usage errors (exit 2); every other
    library error is a domain answer or a resource bound (exit 1). Both
    print exactly one line."""
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr("gradarg.cli.enumerate_extensions", fail)
    code, out, err = run_cli(["solve", "--semantics", "grounded", "--l", "1",
                              "--m", "1", "--n", "1"], THREE_CYCLE)
    usage = (FrameworkParseError, KnowledgeBaseError, FormulaParseError)
    assert (code, out, err) == (2 if error in usage else 1, "",
                                "error: boom\n")


def test_goal_atoms_past_the_bound_fail_before_generation(monkeypatch):
    def generate(*args, **kwargs):
        raise AssertionError("arguments were generated")

    monkeypatch.setattr("gradarg.instantiate.generate_arguments", generate)
    wide = "".join(f"1: p{i}\n" for i in range(16))
    code, out, err = run_cli(
        ["instantiate", "--kb", "-", "--emit", "infer", "--goal", "q"], wide)
    assert (code, out, err) == (
        1, "", "error: 17 atoms exceed the truth-table bound 16\n")


def test_a_base_past_the_atom_bound_fails_with_one_line(tmp_path):
    path = tmp_path / "wide.kb"
    path.write_text("".join(f"1: p{i}\n" for i in range(17)))
    code, out, err = run_cli(
        ["instantiate", "--kb", str(path), "--emit", "ps"])
    assert (code, out, err) == (
        1, "", "error: 17 atoms exceed the truth-table bound 16\n")


# -- packaging -------------------------------------------------------------------


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "gradarg", "solve", "--semantics", "grounded",
         "--l", "2", "--m", "2", "--n", "1"],
        input=THREE_CYCLE, capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "{a, b, c}\n"


# -- every output, pinned --------------------------------------------------------

CHAIN = "a\nb\nc\n#\nc b\nb a\n"
SELF_CHAIN = "a\nb\nc\n#\nb b\nb c\n"
GRADE = ["--l", "2", "--m", "2", "--n", "1"]


def _envelope_text(command, params, result, witnesses=()):
    return json.dumps({"command": command, "params": params,
                       "result": result, "witnesses": list(witnesses)},
                      indent=2) + "\n"


def _kb_envelope(emit, result, witnesses=(), **params):
    return _envelope_text("instantiate", {"kb": "-", "emit": emit, **params},
                          result, witnesses)


PS_TEXTS = [["!a | !b", "a"], ["!a | !b", "b"]]
CHECK_DETAIL = "premise sets of stable extensions match the subtheories"
NONE_CLAUSE = ("no l-conflict-free defense fixpoint exists; least defense "
               "fixpoint shown")
BATTERY = (
    "fixture battery:\n"
    "  abstraction [grounded, preferred, stable]: Holds\n"
    "  independence [grounded, preferred, stable]: Holds\n"
    "  strict independence [stable]: Violated (b is strictly above c in its "
    "component but not in the whole framework under stable)\n"
    "  void precedence [grounded, preferred]: Holds\n"
    "  void precedence [stable]: Violated (unattacked b is not strictly "
    "above a under stable)\n"
    "  self contradiction [preferred]: Violated (b is not strictly above the "
    "self-attacker a)\n"
    "  cardinality precedence [grounded]: Violated (a3 has fewer attackers "
    "than a4 but is not strictly above it)\n"
    "  quality precedence [preferred]: Violated (an attacker of b beats every "
    "attacker of a, yet a is not strictly above b)\n"
    "  defense precedence [grounded]: Violated (x is defended and r is not, "
    "with equal attack counts, yet x is not strictly above r)\n"
    "  strict counter-transitivity [grounded]: Violated (attackers of r "
    "dominate those of x, yet x is not ranked accordingly)\n"
    "  attack path addition [stable]: Violated (adding a length-1 path to x "
    "does not strictly degrade it under stable)\n"
    "  attack path increase [grounded]: Violated (growing the path from 1 to "
    "3 leaves the targets EQUIVALENT under grounded)\n"
    "  defense path increase [grounded]: Violated (growing the path from 2 "
    "to 4 leaves the targets EQUIVALENT under grounded)\n"
    "battery matches expected verdicts: true\n")
ABSOLUTE_SIGNATURE = [[1, 2, 1], [1, 2, 2], [2, 1, 1], [2, 2, 1], [2, 2, 2]]

# (argv, stdin, exit code, stdout, stderr); a stdout of "sha256:<hex>" pins
# the digest of an output too long to spell out here
PINNED = {
    "solve-found-text": (
        ["solve", "--semantics", "grounded", *GRADE], THREE_CYCLE,
        0, "{a, b, c}\n", ""),
    "solve-found-json": (
        ["solve", "--semantics", "grounded", *GRADE, "--output", "json"],
        THREE_CYCLE, 0, _envelope_text(
            "solve", {"semantics": "grounded", "l": 2, "m": 2, "n": 1},
            {"existence": "found", "extensions": [["a", "b", "c"]]}), ""),
    "solve-none-text": (
        ["solve", "--semantics", "grounded", *GRADE], SHARED_TARGET_CHAIN,
        1, f"none-exists: {NONE_CLAUSE}\n", ""),
    "solve-none-json": (
        ["solve", "--semantics", "grounded", *GRADE, "--output", "json"],
        SHARED_TARGET_CHAIN, 1, _envelope_text(
            "solve", {"semantics": "grounded", "l": 2, "m": 2, "n": 1},
            {"existence": "none-exists", "extensions": []},
            [{"clause": NONE_CLAUSE,
              "arguments": ["a3", "b3", "c3", "d3", "e3"]}]), ""),
    "rank-contextual-text": (
        ["rank", "--contextual", "c"], CHAIN,
        0, "[0] c\n[1] a\n[2] b\n[0] > [1]\n[1] > [2]\n", ""),
    "rank-contextual-json": (
        ["rank", "--contextual", "c", "--output", "json"], CHAIN,
        0, _envelope_text(
            "rank", {"mode": "contextual", "start": ["c"]},
            {"kind": "contextual",
             "signatures": {"a": [[1, 1], [2, 1], [2, 2]],
                            "b": [[2, 1], [2, 2]],
                            "c": [[1, 1], [1, 2], [2, 1], [2, 2]]},
             "classes": [["c"], ["a"], ["b"]], "hasse": [[0, 1], [1, 2]]}),
        ""),
    "rank-contextual-dot": (
        ["rank", "--contextual", "c", "--output", "dot"], CHAIN,
        0, 'digraph ranking {\n  rankdir=TB;\n  node [shape=box];\n'
           '  c0 [label="c"];\n  c1 [label="a"];\n  c2 [label="b"];\n'
           '  c0 -> c1;\n  c1 -> c2;\n}\n', ""),
    "rank-absolute-text": (
        ["rank", "--absolute"], SELF_CHAIN,
        0, "[0] a\n[1] b, c\n[0] > [1]\n", ""),
    "rank-absolute-json": (
        ["rank", "--absolute", "--output", "json"], SELF_CHAIN,
        0, _envelope_text(
            "rank", {"mode": "absolute", "semantics": "preferred"},
            {"kind": "absolute:preferred",
             "signatures": {"a": [[l, m, n] for l in (1, 2) for m in (1, 2)
                                  for n in (1, 2)],
                            "b": ABSOLUTE_SIGNATURE,
                            "c": ABSOLUTE_SIGNATURE},
             "classes": [["a"], ["b", "c"]], "hasse": [[0, 1]]}), ""),
    "rank-absolute-dot": (
        ["rank", "--absolute", "--output", "dot"], SELF_CHAIN,
        0, 'digraph ranking {\n  rankdir=TB;\n  node [shape=box];\n'
           '  c0 [label="a"];\n  c1 [label="b, c"];\n  c0 -> c1;\n}\n', ""),
    "postulates-corpus0-text": (
        ["postulates", "--corpus", "0"], None, 0, BATTERY, ""),
    "postulates-corpus3-text": (
        ["postulates", "--corpus", "3"], None,
        0, BATTERY + "random corpus (3 frameworks, seed 0):\n"
        "  abstraction [grounded, preferred, stable]: Holds\n"
        "  independence [grounded, preferred, stable]: Holds\n"
        "  void precedence [grounded, preferred]: Holds\n"
        "  unattacked equivalence [grounded, preferred, stable]: Holds\n", ""),
    "postulates-corpus0-json": (
        ["postulates", "--corpus", "0", "--output", "json"], None, 0,
        "sha256:f0882ec144266e8edb58ab555e4934fd"
        "e0c8e1dae766eb5c930b61025fb551bb",
        ""),
    "postulates-corpus3-json": (
        ["postulates", "--corpus", "3", "--output", "json"], None, 0,
        "sha256:c57798e1f4ec53596023848674c0db43"
        "955b0ca437dbe2e19e060ae792c69e55",
        ""),
    "instantiate-ps-text": (
        ["instantiate", "--kb", "-", "--emit", "ps"], TWO_PS_BASE,
        0, "{!a | !b, a}\n{!a | !b, b}\n", ""),
    "instantiate-ps-json": (
        ["instantiate", "--kb", "-", "--emit", "ps", "--output", "json"],
        TWO_PS_BASE, 0, _kb_envelope("ps", {"subtheories": PS_TEXTS}), ""),
    "instantiate-graph-text": (
        ["instantiate", "--kb", "-", "--emit", "graph"], TWO_PS_BASE,
        0, "A1\nA2\nA3\nA4\nA5\nA6\n#\n"
           "A3 A4\nA3 A5\nA3 A6\nA5 A2\nA5 A3\nA5 A6\n",
        "A1 = ({!a | !b}, !a | !b)\nA2 = ({a}, a)\nA3 = ({!a | !b, a}, !b)\n"
        "A4 = ({b}, b)\nA5 = ({!a | !b, b}, !a)\nA6 = ({a, b}, !(!a | !b))\n"),
    "instantiate-graph-json": (
        ["instantiate", "--kb", "-", "--emit", "graph", "--output", "json"],
        TWO_PS_BASE, 0, _kb_envelope("graph", {
            "arguments": {
                "A1": {"premises": ["!a | !b"], "claim": "!a | !b"},
                "A2": {"premises": ["a"], "claim": "a"},
                "A3": {"premises": ["!a | !b", "a"], "claim": "!b"},
                "A4": {"premises": ["b"], "claim": "b"},
                "A5": {"premises": ["!a | !b", "b"], "claim": "!a"},
                "A6": {"premises": ["a", "b"], "claim": "!(!a | !b)"}},
            "defeats": [["A3", "A4"], ["A3", "A5"], ["A3", "A6"],
                        ["A5", "A2"], ["A5", "A3"], ["A5", "A6"]],
            "attacks": [["A3", "A4"], ["A3", "A5"], ["A3", "A6"],
                        ["A5", "A2"], ["A5", "A3"], ["A5", "A6"],
                        ["A6", "A1"], ["A6", "A3"], ["A6", "A5"]]}), ""),
    "instantiate-check-text": (
        ["instantiate", "--kb", "-", "--emit", "check"], TWO_PS_BASE,
        0, f"true\n{CHECK_DETAIL}\n", ""),
    "instantiate-check-json": (
        ["instantiate", "--kb", "-", "--emit", "check", "--output", "json"],
        TWO_PS_BASE, 0, _kb_envelope(
            "check", {"matches": True, "stable_equals_preferred": True,
                      "subtheories": PS_TEXTS,
                      "stable_premise_sets": PS_TEXTS},
            [{"detail": CHECK_DETAIL}]), ""),
    "instantiate-infer-text": (
        ["instantiate", "--kb", "-", "--emit", "infer", "--goal", "a"],
        TWO_PS_BASE, 1, "false\n", ""),
    "instantiate-infer-json": (
        ["instantiate", "--kb", "-", "--emit", "infer", "--goal", "a",
         "--output", "json"], TWO_PS_BASE, 1, _kb_envelope(
            "infer", {"holds": False, "premise_sets": PS_TEXTS},
            goal="a", mode="sceptical", l=1, m=1, n=1), ""),
    "malformed-tgf": (
        ["solve", "--semantics", "grounded", "--l", "1", "--m", "1",
         "--n", "1"], "a\n#\nb c\n",
        2, "", "error: line 3: undeclared argument 'b' in edge\n"),
    "malformed-kb": (
        ["instantiate", "--kb", "-"], "0: a\n",
        2, "", "error: line 1: stratum index must be >= 1\n"),
    "too-deep-formula": (
        ["instantiate", "--kb", "-"], "1: " + "!" * 300 + "a\n",
        2, "", "error: line 1: formula is nested too deeply\n"),
    "missing-file": (
        ["solve", "--input", "no-such-dir/missing.tgf", "--semantics",
         "grounded", "--l", "1", "--m", "1", "--n", "1"], None,
        2, "", "error: cannot read 'no-such-dir/missing.tgf': "
               "No such file or directory\n"),
    "infer-without-goal": (
        ["instantiate", "--kb", "-", "--emit", "infer"], "1: a\n",
        2, "", "error: --emit infer requires --goal\n"),
}


@pytest.mark.parametrize("case", PINNED)
def test_every_output_is_pinned(case):
    """Stdout, stderr and exit code of each subcommand, emit and output
    form, and of one case of each usage error, byte for byte."""
    argv, stdin, code, out, err = PINNED[case]
    got_code, got_out, got_err = run_cli(argv, stdin)
    if out.startswith("sha256:"):
        got_out = "sha256:" + hashlib.sha256(got_out.encode()).hexdigest()
    assert (got_code, got_out, got_err) == (code, out, err)
