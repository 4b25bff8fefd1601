"""Every top-level import in the package, the benchmark and their tests is used.

No linter ships with the project, so an AST scan stands in for one: a name
bound by a module-level import must appear somewhere in that module.
Imports marked ``# noqa: F401`` are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports in ``source`` and never used there."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nimport a.b  # noqa: F401\nprint(sys)\n"
    assert unused_imports(source) == ["os"]


def test_no_module_has_unused_imports():
    folders = ("src/stalegrad", "tests", "bench", "bench/tests")
    paths = [path for folder in folders for path in sorted((ROOT / folder).glob("*.py"))]
    assert paths
    found = {}
    for path in paths:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}
