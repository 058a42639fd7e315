"""Every name a ckgeo module imports is used in that module.

No linter ships with the project, so this walks the package sources with
ast.  Names a module lists in __all__ are re-exports and count as used.
"""

import ast
from pathlib import Path

import pytest

import ckgeo

SOURCES = sorted(Path(ckgeo.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of each module-level or nested import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = sorted(
        "%s (line %d)" % (name, line) for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


def test_checker_flags_an_unused_import():
    tree = ast.parse("import math\nfrom typing import Optional, Tuple\nx: Tuple = ()\n")
    assert set(_imported(tree)) - _used(tree) == {"math", "Optional"}
