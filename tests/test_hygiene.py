"""Lint for the package, test and script sources: three AST scans and a
check of the declared dependencies.

Every imported name is used: a name an import statement binds must appear
as a name somewhere in the same file.  `import a.b` binds `a`, so attribute
access through `a` counts as a use.  The package's `__init__.py` is left
out: it imports names only to re-export them.

Every public name has a production caller: each name in a package
module's `__all__` must be read, as a name or an attribute, somewhere in
the package (bar `__init__.py`) or in `scripts/`, or be named in README.
Its definition and its `__all__` entry do not count, and neither do the
tests: code that only tests call belongs in `tests/`, reference
implementations in `tests/oracles.py`.

numpy is the package's only runtime dependency: `src/gibbsfit` imports no
other module from outside the standard library, and `pyproject.toml`
declares numpy alone.  The scripts import numpy and the repository's own
`gibbsfit` and `perfbench` besides it, so none needs the test extra.
scipy is a test oracle only; a scipy import would also cost a fresh
process about half a second.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gibbsfit"
SOURCES = sorted([
    *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    *(ROOT / "tests").glob("*.py"),
    *(ROOT / "scripts").glob("*.py"),
])


SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _inner_nodes(scope):
    """The nodes of scope, nested scopes included but not entered."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _own_imports(scope) -> dict[str, int]:
    """Names the import statements of scope itself bind, with their line."""
    imported = {}
    for node in _inner_nodes(scope):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    return imported


def unused_imports(source: str) -> list[str]:
    scopes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, SCOPES)]
    own = {scope: _own_imports(scope) for scope in scopes}

    def reads(scope, name: str) -> bool:
        # a nested scope that imports name again reads its own binding
        return any((isinstance(node, ast.Name) and node.id == name)
                   or (isinstance(node, SCOPES) and name not in own[node]
                       and reads(node, name))
                   for node in _inner_nodes(scope))

    unused = [(name, line) for scope in scopes
              for name, line in own[scope].items() if not reads(scope, name)]
    return [f"{name} (line {line})" for name, line in sorted(unused)]


def test_scan_flags_an_unused_import():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert unused_imports(src) == ["c (line 3)", "os (line 1)"]


def test_scan_flags_an_import_every_use_shadows():
    # a top-level import left behind when a function imports the name itself
    src = ("from a import f\nimport b\n\n\ndef g():\n    from a import f\n"
           "    return f(b)\n")
    assert unused_imports(src) == ["f (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _exports(tree) -> list[str]:
    """The strings of the module's top-level `__all__` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _reads(tree) -> set[str]:
    """Every name and attribute the code loads (not what it defines or
    assigns)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def uncalled_exports(modules: dict[str, str], scripts: list[str], readme: str) -> list[str]:
    """`module.name` for each `__all__` name of modules (module name ->
    source) that no module or script reads and README does not name."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    reads = set().union(*map(_reads, trees.values()),
                        *(_reads(ast.parse(src)) for src in scripts))
    return sorted(f"{mod}.{name}" for mod, tree in trees.items() for name in _exports(tree)
                  if name not in reads and not re.search(rf"\b{re.escape(name)}\b", readme))


class TestProductionCallers:
    MODULE = "__all__ = ['used', 'documented', 'orphan']\n\ndef used(): pass\n" \
             "def documented(): pass\ndef orphan(): pass\n"

    def test_scan_flags_an_uncalled_name(self):
        assert uncalled_exports({"a": self.MODULE}, [], "") == \
            ["a.documented", "a.orphan", "a.used"]

    def test_a_name_another_module_reads_passes(self):
        other = "from .a import used\nimport x\n\nused(x.documented)\n"
        assert uncalled_exports({"a": self.MODULE, "b": other}, [], "") == ["a.orphan"]

    def test_a_name_readme_mentions_passes(self):
        readme = "Call `documented` or `used()`; `orphans` is another word.\n"
        assert uncalled_exports({"a": self.MODULE}, [], readme) == ["a.orphan"]

    def test_every_export_has_a_production_caller(self):
        modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")
                   if p.name != "__init__.py"}
        scripts = [p.read_text() for p in (ROOT / "scripts").glob("*.py")]
        assert uncalled_exports(modules, scripts, (ROOT / "README.md").read_text()) == []


def third_party_imports(source: str) -> list[str]:
    """The top-level modules outside the standard library that source
    imports anywhere, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.update(n.split(".")[0] for n in names)
    return sorted(found - sys.stdlib_module_names)


def test_scan_finds_third_party_imports():
    src = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
           "import scipy.linalg\nfrom scipy import special\nfrom . import yaml\n\n\n"
           "def f():\n    from hypothesis import given\n")
    assert third_party_imports(src) == ["hypothesis", "numpy", "scipy"]


def test_package_imports_only_numpy():
    found = {name for path in PACKAGE.glob("*.py")
             for name in third_party_imports(path.read_text())}
    assert found == {"numpy"}


def test_scripts_import_only_numpy_and_the_repository():
    found = {name for path in (ROOT / "scripts").glob("*.py")
             for name in third_party_imports(path.read_text())}
    assert found <= {"numpy", "gibbsfit", "perfbench"}


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]
