import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools"
    / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment is on a code line


class Box:
    """Class docstring."""

    size = 2


def area(x,
         y):
    """Function docstring.

    Over three lines."""
    text = """a string that is
    not a docstring"""

    return x * y + len(text)
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, class, size, def over two lines, text over two lines, return
    assert code_lines.code_lines(SNIPPET) == 8
    assert code_lines.docstring_lines(
        code_lines.ast.parse(SNIPPET)) == {1, 2, 9, 16, 17, 18}


def test_code_lines_counts_each_module(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SNIPPET)
    second.write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(first), str(second)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].endswith("total")
