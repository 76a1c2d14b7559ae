"""Statement lines of ``src/gouruin`` that a pytest run never executes.

Usage (from the repository root)::

    python tools/linecover.py [pytest arguments ...]

for example ``python tools/linecover.py -q tests --ignore=tests/test_acceptance.py``.
The arguments go to ``pytest.main`` unchanged; with none, the whole
``tests`` directory runs.  The collector uses only the standard library
(``sys.settrace`` and ``threading.settrace``), so it needs no coverage
package.  It prints one line per module, with the number of unexecuted
statements and their line numbers, then the total, and exits with pytest's
exit code.

A statement is one ``ast`` statement that compiles to code, identified by
its first line.  It counts as executed when any line of it ran: for a
compound statement (``if``, ``for``, ``def`` ...) a line of its header, its
decorators included.  Docstrings, ``global`` and lines marked
``pragma: no cover`` (with the block they open) are not counted.  Code run
in child processes (the tests that start a fresh interpreter) is not seen.

Tracing makes the suite a few times slower, so a test that times itself
against a budget can fail under it on a slow host:
``tests/test_cli.py::TestValidate::test_exact_suite_passes_and_is_deterministic``
runs the exact acceptance criteria, each against its time budget.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gouruin"


def _code_lines(code) -> set[int]:
    """Line numbers that carry bytecode in ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> dict[int, range]:
    """First line of every counted statement of a module -> the lines whose
    execution marks it as run."""
    source = path.read_text()
    tree = ast.parse(source)
    with_code = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out: dict[int, range] = {}

    def visit(body) -> None:
        for k, node in enumerate(body):
            if k == 0 and _is_docstring(node):
                continue
            if "pragma: no cover" in text[node.lineno - 1]:
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            inner = [b for f in ("body", "orelse", "finalbody") for b in getattr(node, f, [])]
            inner += [s for h in getattr(node, "handlers", []) for s in h.body]
            inner += [s for c in getattr(node, "cases", []) for s in c.body]
            last = min(b.lineno for b in inner) - 1 if inner else node.end_lineno
            span = range(first, max(last, node.lineno) + 1)
            if with_code.intersection(span) and not isinstance(node, (ast.Global, ast.Nonlocal)):
                out[node.lineno] = span
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []))
            for h in getattr(node, "handlers", []):
                visit(h.body)
            for c in getattr(node, "cases", []):
                visit(c.body)

    visit(tree.body)
    return out


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            parts.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(parts)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    print("\nunexecuted statement lines of src/gouruin:")
    for path in sorted(PACKAGE.glob("*.py")):
        seen = hits.get(str(path), set())
        missed = sorted(first for first, span in statements(path).items()
                        if not seen.intersection(span))
        total += len(missed)
        print(f"  {path.name}: {len(missed)}" + (f"  [{_ranges(missed)}]" if missed else ""))
    print(f"  total: {total}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
