"""``tools/loc.py``: lines and code lines, without docstrings, comments or
blank lines, of the package's modules."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", PATH)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as code

# a comment-only line


class Shape:
    """A class docstring."""

    def area(self, r):
        """A function docstring,
        over two lines."""
        total = (math.pi
                 * r ** 2)
        label = """a string
that is not a docstring"""
        return total, label
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    # code lines: the import, class, def, both lines of the statement,
    # both lines of the string, and the return
    assert loc.count(MODULE) == (19, 8)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    path = tmp_path / "shape.py"
    path.write_text(MODULE)
    assert loc.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["shape.py", "19", "8"], ["shape.py", "19", "8"], ["total", "38", "16"]]
