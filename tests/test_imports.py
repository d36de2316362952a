"""Every rshds module and test module uses what it imports, every private
helper of the package has a caller in it, every public name has a reader,
the package binds no name but its version, and the CLI starts without the
layers it does not run.

No linter is a dependency of this project, so these checks are AST scans.
Each import must be read in the scope that binds it, the module for a
module-level import and the function for one inside a function; each
module-level ``_name`` function or class must be referred to somewhere in
the package, and each ``_name`` method of a class must be read as ``._name``.
Each public module-level function, class or constant must be read by the
package or named by a file of the tests or the benchmark.
"""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rshds

PACKAGE = Path(rshds.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope: ast.AST):
    """Import statements whose innermost enclosing function is ``scope``."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    """Names bound by imports that the module or function binding them never reads."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        bound = set()
        for node in _own_imports(scope):
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += bound - read
    return sorted(unused)


def test_unused_imports_are_found():
    assert unused_imports("import os, a.b\nfrom x import y as z, w\nw(os)\n") == ["a", "z"]
    # a function's import counts only where that function reads it
    source = "def f():\n    import json, re\n    return re\ndef g():\n    return json\n"
    assert unused_imports(source) == ["json"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_module_has_no_unused_imports(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_helpers_without_callers(sources: dict) -> list:
    """Private helpers that nothing in ``sources`` reaches.

    ``sources`` maps module names to their source.  A module-level ``_name``
    function or class is reached by a name read, an attribute read
    (``groups._greedy_reach``) or a name imported; a ``_name`` method of a
    module-level class only by an attribute read (``self._validate()``).
    Dunder names are the interpreter's and never count as helpers.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    referenced |= attributes
    helpers = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef))
        and _private(node.name) and node.name not in referenced
    ]
    methods = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCTIONS) and _private(node.name) and node.name not in attributes
    ]
    return sorted(helpers + methods)


def test_private_helpers_without_callers_are_found():
    sources = {
        "a": "def _used():\n    pass\ndef _unused():\n    pass\nclass _Lone:\n    pass\n"
             "def __getattr__(name):\n    pass\ndef public():\n    return _used()\n",
        "b": "from .a import _imported\nimport a\na._attribute\n",
        "c": "def _imported():\n    pass\ndef _attribute():\n    pass\n",
    }
    assert private_helpers_without_callers(sources) == ["a._Lone", "a._unused"]


def test_private_methods_without_readers_are_found():
    # a method is read only as an attribute: the bare name _orphan is not a read
    sources = {
        "a": "class K:\n    def _read(self):\n        pass\n    def _orphan(self):\n        pass\n"
             "    def __repr__(self):\n        return self._read()\n",
        "b": "def f():\n    return _orphan\n",
    }
    assert private_helpers_without_callers(sources) == ["a.K._orphan"]


def test_every_private_helper_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert private_helpers_without_callers(sources) == []


def _public_definitions(tree: ast.Module):
    """The public functions, classes and constants a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def public_names_without_readers(sources: dict, others: str) -> list:
    """Public module-level names of ``sources`` that nothing reads.

    ``sources`` maps package module names to their source.  A name is read
    when a package module loads it, reads it as an attribute or imports it,
    or when ``others`` (the text of the tests and the benchmark) names it as
    a word.  Binding a name is not reading it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    read.update(re.findall(r"\w+", others))
    return sorted({
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if name not in read
    })


def test_public_names_without_readers_are_found():
    sources = {
        "a": "LIMIT = 3\nWIDTH: int = 2\nSTORED = 1\nSTORED = LIMIT\n"
             "def named():\n    pass\ndef lone():\n    pass\nclass Lone:\n    pass\n",
        "b": "from .a import WIDTH\n",
    }
    assert public_names_without_readers(sources, "named()") == ["a.Lone", "a.STORED", "a.lone"]


def test_every_public_name_has_a_reader():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    others = "\n".join(
        p.read_text(encoding="utf-8", errors="replace")
        for folder in (TESTS, TESTS.parent / "perfbench")
        for p in sorted(folder.rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts
    )
    assert public_names_without_readers(sources, others) == []


def _fresh_output(code: str) -> str:
    """What ``code`` prints in a new interpreter that finds this ``rshds``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_cli_import_leaves_numpy_out():
    # nor the modules only construct, thm81 and search use, nor dataclasses
    # and the inspect module it imports
    unwanted = ("numpy", "dataclasses", "inspect", "rshds.constructions", "rshds.f2")
    code = f"import sys, rshds.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    assert _fresh_output(code) == "[]"


def test_package_import_binds_only_the_version():
    # each name is imported from its submodule; the package re-exports none
    code = ("import sys, rshds; "
            "print([n for n in dir(rshds) if not n.startswith('_')], "
            "sorted(m for m in sys.modules if m.startswith('rshds.')))")
    assert _fresh_output(code) == "[] []"




def _fresh_cli(directory: Path, argv: list, module: str = "rshds.screen",
               bodies: tuple = ("_subgroups_dividing", "_proved_table")) -> str:
    """'<exit code> <module loaded?>' after ``rshds argv`` in ``directory``, in a new interpreter.

    ``module`` is loaded when it is in ``sys.modules``, or when any loaded
    rshds module holds one of the functions named in ``bodies``.  By default
    that is the lattice: the subgroup walk or the table proof.
    """
    code = (f"import os, sys, rshds.cli; os.chdir({str(directory)!r}); "
            f"code = rshds.cli.main({argv!r}); "
            f"print(code, {module!r} in sys.modules or any("
            f"hasattr(m, b) for b in {bodies!r} "
            "for n, m in list(sys.modules.items()) if n.startswith('rshds.')))")
    return _fresh_output(code).splitlines()[-1]


def test_only_the_screen_commands_load_the_lattice(tmp_path):
    # construct, certify and export-hadamard on gnk:3,1 and c4n:3, and thm81,
    # compile no subgroup lattice, screen or table proof; a screen does.  The
    # steps share one directory, so each reads what those before it wrote,
    # and the c4n:3 set is self-inverse, so its certify and export exit 1
    steps = {
        "construct gnk:3,1 --out g.json": "0 False",
        "certify g.json": "0 False",
        "export-hadamard g.json --out g.had": "0 False",
        "construct c4n:3 --out c.json": "0 False",
        "certify c.json": "1 False",
        "export-hadamard c.json --out c.had": "1 False",
        "thm81 gnk:3,1 distinguished --out t.json": "0 False",
        "screen gnk:3,1 8": "0 True",
    }
    assert {step: _fresh_cli(tmp_path, step.split()) for step in steps} == steps


def test_only_the_schur_checks_load_the_schur_module(tmp_path):
    # the Schur-ring, spectrum and Hadamard certificates compile only in a
    # certify that runs one of them: construct, export-hadamard, thm81 and a
    # certify of the other three checks never load rshds.schur.  The steps
    # share one directory, so each reads what those before it wrote
    steps = {
        "construct gnk:3,1 --out g.json": "0 False",
        "export-hadamard g.json --out g.had": "0 False",
        "thm81 gnk:3,1 distinguished --out t.json": "0 False",
        "certify g.json --checks dset,rshds,profile": "0 False",
        "certify t.json --checks dset,profile": "0 False",
        "certify g.json --checks hadamard": "0 True",
        "certify g.json": "0 True",
    }
    found = {step: _fresh_cli(tmp_path, step.split(), "rshds.schur",
                              ("_schur_structure", "_spectrum", "_hadamard"))
             for step in steps}
    assert found == steps


def test_the_ladder_commands_load_no_argparse_or_gettext(tmp_path):
    # the command table is the CLI's one parser: argparse, with the gettext and
    # locale it loads, took about 6 ms of each fresh CLI process.  Each step is
    # a new interpreter, and certify and export-hadamard read what construct wrote
    steps = ["construct gnk:3,1 --out g.json", "certify g.json",
             "export-hadamard g.json --out g.had", "thm81 gnk:3,1 distinguished --out t.json",
             "params 4"]
    for step in steps:
        code = (f"import os, sys, rshds.cli; os.chdir({str(tmp_path)!r}); "
                f"code = rshds.cli.main({step.split()!r}); "
                "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
        assert (step, _fresh_output(code).splitlines()[-1]) == (step, "0 []")
