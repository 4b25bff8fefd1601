"""List the statements of ``src/stalegrad/*.py`` that a pytest run never executes.

    python3 tools/uncovered.py [pytest arguments ...]

Run from the repository root.  It needs no coverage package: a
``sys.settrace`` line tracer records every line run in a frame of the
package's code (threads included; subprocesses and pool children are not
traced) while pytest runs in-process with the given arguments.  Then, for
each statement that never ran, it prints ``path:line: code`` (the path
relative to the root, the statement's first line).  A docstring and a
``global`` statement compile to no line of their own and are never listed.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stalegrad"


def statements(source: str) -> dict[int, tuple[int, int]]:
    """Each statement's first line, mapped to the lines whose running counts as running it:
    a compound statement's header (decorators included), a simple statement's every line."""
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans[node.lineno] = (first, max(first, last))
    return spans


def trace(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the tracer; its exit code and the lines run per file."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)  # a module's or a generator's first line
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None) -> int:
    code, ran = trace(sys.argv[1:] if argv is None else argv)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for start, (first, last) in sorted(statements(source).items()):
            if not any(line in hit for line in range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{start}: {lines[start - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
