"""Count the lines and the code lines of the package's modules.

    python3 tools/loc.py            # every src/cppa/*.py, then the total
    python3 tools/loc.py a.py b.py  # the given files, then the total

Prints one line per file, ``<name> <lines> <code lines>``, and a total. A
code line holds a token other than a comment, a newline or an indent, and
is not part of a module, class or function docstring: blank lines,
comment-only lines and docstrings do not count, while every line of a
multi-line statement, or of a string that is not a docstring, does.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(lines, code lines) of Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None):
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    paths = paths or sorted((ROOT / "src" / "cppa").glob("*.py"))
    total = [0, 0]
    for path in paths:
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{path.name:16} {lines:5} {code:5}")
    print(f"{'total':16} {total[0]:5} {total[1]:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
