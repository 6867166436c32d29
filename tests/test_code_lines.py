import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# lines 3, 7, 9, 10 and 11 count: docstrings, the comment line and the
# blank lines do not, and the two-line string counts on both of its lines
SNIPPET = '''"""Module docstring
over two lines."""
import os  # a trailing comment does not hide the code


# a comment line
def f(x):
    """Function docstring."""
    text = """first
second"""
    return x + len(text)
'''


def test_code_lines_counts_only_code(tmp_path, capsys):
    assert code_lines.code_lines(SNIPPET) == 5
    (tmp_path / "snippet.py").write_text(SNIPPET, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     5  snippet\n     5  total\n"
