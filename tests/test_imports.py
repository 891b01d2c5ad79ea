"""Import hygiene: every module-level import in src/fflattice is used.

Each module is parsed with ast; a name bound by a module-level import must
be read somewhere in that module.  Re-exports listed in the package's
__all__ and __future__ imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "fflattice"


def unused_imports(tree: ast.Module) -> list[str]:
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exempt |= set(ast.literal_eval(node.value))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used and name not in exempt]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checker_flags_unused_import():
    tree = ast.parse("import os\nfrom . import a, b\nfrom x import y as z\n"
                     "__all__ = ['b']\nprint(a)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: z"]
