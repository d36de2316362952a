"""Every rshds module and test module uses what it imports, and the CLI starts without numpy.

No linter is a dependency of this project, so the unused-import check is an
AST scan of each module's top-level imports against the names it reads.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rshds

PACKAGE = Path(rshds.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    assert unused_imports("import os, a.b\nfrom x import y as z, w\nw(os)\n") == ["a", "z"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_module_has_no_unused_imports(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []


def test_cli_import_leaves_numpy_out():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rshds.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
