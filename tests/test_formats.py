import pytest
from hypothesis import example, given, strategies as st

from conftest import frameworks
from gradarg.errors import FrameworkParseError
from gradarg.fixtures import shared_target_chain, three_cycle
from gradarg.formats import (detect_format, parse, parse_apx, parse_tgf,
                             write, write_apx, write_tgf)


# -- TGF ----------------------------------------------------------------------


def test_tgf_basic():
    fw = parse_tgf("a\nb\nc\n#\na b\nb c\nc a\n")
    assert fw == three_cycle()


def test_tgf_blank_lines_and_padding_ignored():
    fw = parse_tgf("\n  a  \n\nb\n#\n\n  a   b  \n")
    assert fw.labels == ("a", "b")
    assert fw.attacks == (("a", "b"),)


def test_tgf_edge_labels_ignored():
    fw = parse_tgf("a\nb\n#\na b because-of-weather\n")
    assert fw.attacks == (("a", "b"),)


def test_tgf_node_line_takes_first_token():
    fw = parse_tgf("a Argument-One\nb\n#\n")
    assert fw.labels == ("a", "b")


def test_tgf_no_edges_section_content():
    fw = parse_tgf("a\n#\n")
    assert fw.labels == ("a",)
    assert fw.attacks == ()


def test_tgf_missing_separator():
    with pytest.raises(FrameworkParseError, match="missing '#'"):
        parse_tgf("a\nb\n")
    with pytest.raises(FrameworkParseError, match="missing '#'"):
        parse_tgf("")


def test_tgf_duplicate_node():
    with pytest.raises(FrameworkParseError, match="line 2: duplicate") as info:
        parse_tgf("a\na\n#\n")
    assert info.value.line == 2


def test_tgf_short_edge_line():
    with pytest.raises(FrameworkParseError,
                       match="line 3: edge line needs"):
        parse_tgf("a\n#\na\n")


def test_tgf_undeclared_edge_endpoint():
    with pytest.raises(FrameworkParseError, match="undeclared argument 'z'"):
        parse_tgf("a\n#\na z\n")


# -- APX ----------------------------------------------------------------------


def test_apx_basic():
    text = "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,c).\natt(c,a).\n"
    assert parse_apx(text) == three_cycle()


def test_apx_whitespace_and_multiple_facts_per_line():
    fw = parse_apx("arg( a ). arg(b).\natt( a , b ).")
    assert fw.labels == ("a", "b")
    assert fw.attacks == (("a", "b"),)
    # blanks after the last fact of a line, and a blank line
    fw = parse_apx("arg(a). arg(b). \t \natt(a,b).  \n  \narg(c).\t")
    assert fw.labels == ("a", "b", "c")
    assert fw.attacks == (("a", "b"),)


def test_apx_att_before_arg_is_fine():
    fw = parse_apx("att(a,b).\narg(a).\narg(b).\n")
    assert fw.attacks == (("a", "b"),)


def test_apx_malformed_fact():
    with pytest.raises(FrameworkParseError, match="line 1: malformed fact"):
        parse_apx("argument(a).")
    with pytest.raises(FrameworkParseError, match="malformed"):
        parse_apx("arg(a)")
    # the rest of the line from the bad fact on, stripped, at most 30
    # characters
    with pytest.raises(FrameworkParseError) as info:
        parse_apx("arg(a).\narg(b).  arg(c) arg(d). att(a,b). att(b,a).  \t")
    assert str(info.value) == (
        "line 2: malformed fact near 'arg(c) arg(d). att(a,b). att(b'")


def test_apx_arity_errors():
    with pytest.raises(FrameworkParseError, match="exactly one name"):
        parse_apx("arg(a,b).")
    with pytest.raises(FrameworkParseError, match="exactly two names"):
        parse_apx("att(a).")


def test_apx_duplicate_argument():
    with pytest.raises(FrameworkParseError, match="line 2: duplicate"):
        parse_apx("arg(a).\narg(a).")


def test_apx_undeclared_attack_endpoint_reports_att_line():
    with pytest.raises(FrameworkParseError,
                       match="line 1: undeclared argument 'b'"):
        parse_apx("att(a,b).\narg(a).")


# -- writers and round trips ---------------------------------------------------


def test_write_tgf_shape():
    text = write_tgf(three_cycle())
    assert text == "a\nb\nc\n#\na b\nb c\nc a\n"


def test_write_apx_shape():
    text = write_apx(three_cycle())
    assert text == "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,c).\natt(c,a).\n"


@given(frameworks())
def test_tgf_round_trip(fw):
    assert parse_tgf(write_tgf(fw)) == fw


@given(frameworks())
def test_apx_round_trip(fw):
    assert parse_apx(write_apx(fw)) == fw


@given(st.lists(st.text("ab#(),. \t", min_size=1, max_size=4), min_size=1,
                max_size=5, unique=True),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6))
@example(["f(x)", "y,z"], [(0, 1)])
@example(["#", "a"], [(0, 1)])
def test_parsed_frameworks_round_trip_or_are_refused(labels, edges):
    """Whatever either parser accepts, each writer writes text that its
    parser reads back as the same framework, or refuses a named label."""
    edges = [(labels[s % len(labels)], labels[d % len(labels)])
             for s, d in edges]
    texts = ((parse_tgf, "\n".join(labels) + "\n#\n"
              + "".join(f"{s} {d}\n" for s, d in edges)),
             (parse_apx, "".join(f"arg({x}).\n" for x in labels)
              + "".join(f"att({s},{d}).\n" for s, d in edges)))
    for parser, text in texts:
        try:
            fw = parser(text)
        except FrameworkParseError:
            continue
        for writer, reader in ((write_tgf, parse_tgf),
                               (write_apx, parse_apx)):
            try:
                written = writer(fw)
            except ValueError as exc:
                assert any(repr(x) in str(exc) for x in fw.labels)
                continue
            assert reader(written) == fw


# -- detection and dispatch ----------------------------------------------------


def test_detect_format():
    assert detect_format("arg(a).") == "apx"
    assert detect_format("\n\natt(a,b).\n") == "apx"
    assert detect_format("a\nb\n#\n") == "tgf"
    assert detect_format("") == "tgf"
    assert detect_format("argon\n#\n") == "tgf"


def test_parse_auto_detects():
    fw = shared_target_chain()
    assert parse(write_apx(fw)) == fw
    assert parse(write_tgf(fw)) == fw


def test_parse_explicit_format_overrides():
    with pytest.raises(FrameworkParseError):
        parse("arg(a).", fmt="tgf")


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        write(three_cycle(), "dot")
    with pytest.raises(ValueError, match="unknown format"):
        parse("a\n#\n", fmt="gml")
