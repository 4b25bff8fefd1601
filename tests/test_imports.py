"""Every top-level import in the package and the tests is used.

No linter ships with the project, so an AST scan stands in for one: a name
bound by a module-level import must appear somewhere in that module.
Package ``__init__.py`` files (which re-export) and imports marked
``# noqa: F401`` are skipped; the package's ``__all__`` is instead checked
against the names its ``__init__.py`` imports.
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
    paths = [
        path
        for folder in ("src/stalegrad", "tests")
        for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert paths
    found = {}
    for path in paths:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def test_package_exports_are_exactly_its_imports():
    import stalegrad

    tree = ast.parse((ROOT / "src/stalegrad/__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(stalegrad.__all__) == sorted(imported)
    assert all(hasattr(stalegrad, name) for name in stalegrad.__all__)
