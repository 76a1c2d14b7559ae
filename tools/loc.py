"""Code lines of each Python file of a package, and their total.

Usage (from the repository root)::

    python tools/loc.py [directory]

The directory defaults to ``src/gouruin``.  A code line is a line that holds
a token of a statement: blank lines, comments and docstrings (a string
literal that opens a module, a class or a function) do not count, and a
statement spread over several lines counts each of them.  It prints one line
per file, ``<lines> <path>`` in path order, then ``<total> total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of code lines of one Python source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", default=str(ROOT / "src" / "gouruin"))
    args = ap.parse_args(argv)
    base = Path(args.directory)
    total = 0
    for path in sorted(base.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n} {path.relative_to(base)}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
