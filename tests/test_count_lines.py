"""tools/count_lines.py: code lines leave out docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
def f(x):
    """One-line docstring."""
    s = """a string that is no docstring
spans two code lines"""
    return (x +
            len(s))


class C:
    """Class docstring,

    with a blank line inside."""

    y = os.sep
'''


def test_code_lines_of_a_snippet():
    # import, def, the two string lines, the two return lines, class, y
    assert count_lines.code_lines(SNIPPET) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert count_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[0].endswith("a.py") and lines[-1].endswith("total")
