"""Lint for the package, test and script sources: every imported name is
used.

An AST scan: a name an import statement binds must appear as a name
somewhere in the same file.  `import a.b` binds `a`, so attribute access
through `a` counts as a use.  The package's `__init__.py` is left out: it
imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([
    *(p for p in (ROOT / "src" / "gibbsfit").glob("*.py") if p.name != "__init__.py"),
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
