"""scripts/code_lines.py, the code-line count quoted for src/, on a snippet."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment-only line
def f(x):
    """Docstring."""
    y = (x +
         1)
    "a bare string statement"
    s = """a string
    over two lines"""
    return math.sqrt(y) + len(s)
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, def, the two lines of y, the two of s, return
    assert load_script().code_lines(SNIPPET) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert load_script().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (f"     7  {tmp_path / 'a.py'}\n"
                                       f"     1  {tmp_path / 'pkg' / 'b.py'}\n"
                                       "     8  total\n")
