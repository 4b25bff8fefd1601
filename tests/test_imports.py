"""Imports and test helpers: each one used, and each command loading only what it runs.

No linter ships with the project, so an AST scan stands in for one: a name
bound by a module-level import must appear somewhere in that module.
Imports marked ``# noqa: F401`` are skipped.  A module-level helper of a
test or tool module (a function, class or constant; not a test, hook or
fixture) must be read in that module or named by another one, so a deleted
test leaves no orphan behind.  So must a private module-level name of the
package (one that starts with ``_`` and is not a dunder), so a refactor
leaves no orphaned kernel behind.

Every process pays for what it imports, so fresh interpreters probe that
the CLI loads no process pool, an objective build loads no ``numpy.ma``,
no module loads scipy, and the simulator loads no YAML parser.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _python_files():
    folders = ("src/stalegrad", "tests", "bench", "bench/tests", "tools")
    return [path for folder in folders for path in sorted((ROOT / folder).glob("*.py"))]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nimport a.b  # noqa: F401\nprint(sys)\n"
    assert unused_imports(source) == ["os"]


def test_no_module_has_unused_imports():
    paths = _python_files()
    assert paths
    found = {}
    for path in paths:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def unused_helpers(sources: dict[str, str], package: tuple[str, ...] = ()) -> dict[str, list[str]]:
    """By module: the helpers in ``sources`` (module name -> source) that their module never
    reads and no other module names as ``module.name`` or ``from module import name``.
    The helpers of a ``package`` module are its private names, and ``from stalegrad.module``
    names them too."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    named = {
        ((node.module or "").removeprefix("stalegrad."), alias.name)
        for node in nodes
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    named |= {(node.value.id, node.attr) for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    found = {}
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        helpers = [
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith(("test_", "pytest_"))
            and not any("fixture" in ast.unparse(decorator) for decorator in node.decorator_list)
        ]
        helpers += [target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets if isinstance(target, ast.Name)]
        helpers += [node.target.id for node in tree.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        if module in package:
            helpers = [name for name in helpers if name.startswith("_") and not name.startswith("__")]
        unused = [name for name in helpers if name not in read and (module, name) not in named]
        if unused:
            found[module] = unused
    return found


def test_unused_helpers_are_found():
    helpers = "import pytest\nLIMIT = SEEN = 3\ndef _orphan(): pass\n@pytest.fixture\ndef ready(): pass\n"
    sources = {"helpers": helpers, "test_a": "from helpers import SEEN\nimport helpers\ndef test_x(ready): helpers.LIMIT\n"}
    assert unused_helpers(sources) == {"helpers": ["_orphan"]}
    kernels = "__all__ = []\nPUBLIC = 1\n_ORPHAN: int = 2\ndef _read(): pass\ndef _named(): _read()\n"
    sources = {"kernels": kernels, "test_b": "from stalegrad.kernels import _named\n"}
    assert unused_helpers(sources, package=("kernels",)) == {"kernels": ["_ORPHAN"]}


def test_no_test_module_has_unused_helpers():
    paths = [path for folder in ("tests", "tools") for path in sorted((ROOT / folder).glob("*.py"))]
    assert unused_helpers({path.stem: path.read_text(encoding="utf-8") for path in paths}) == {}


def test_no_package_module_has_unused_private_names():
    paths = _python_files()
    package = tuple(path.stem for path in sorted((ROOT / "src/stalegrad").glob("*.py")))
    found = unused_helpers({path.stem: path.read_text(encoding="utf-8") for path in paths}, package)
    assert {module: names for module, names in found.items() if module in package} == {}


_EVERY_MODULE = """
import importlib, pkgutil, stalegrad
for info in pkgutil.iter_modules(stalegrad.__path__):
    importlib.import_module("stalegrad." + info.name)
from stalegrad.analysis import waiting_time_gof
waiting_time_gof([1, 2, 1, 3] * 50, 0.5)
"""
_FAMILIES = {
    "quadratic": {"family": "quadratic", "dim": 2},
    "mixture": {"family": "mixture", "components": [{"dim": 2}, {"dim": 2}]},
    "nonconvex": {"family": "nonconvex", "dim": 2},
    "logistic": {"family": "logistic"},
}


@pytest.mark.parametrize(
    "code, unloaded",
    [
        pytest.param("import stalegrad.cli", ["multiprocessing", "concurrent.futures.process"], id="cli"),
        *(
            pytest.param(f"import stalegrad.objectives as o; o.from_spec({spec!r}, 0.1)", ["numpy.ma"], id=family)
            for family, spec in _FAMILIES.items()
        ),
        pytest.param(_EVERY_MODULE, ["scipy"], id="every-module"),
        pytest.param("import stalegrad.objectives", ["yaml"], id="objectives"),
        pytest.param("import stalegrad.simulation", ["yaml"], id="simulation"),
    ],
)
def test_a_fresh_interpreter_loads_only_what_it_runs(code, unloaded):
    probe = f"{code}\nimport sys\nprint([name for name in {unloaded!r} if name in sys.modules])"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
