"""Every name a ckgeo module imports is used in that module, every private
module-level name is used somewhere in the package, and every name a module
lists in __all__ is defined in it.

No linter ships with the project, so this walks the package sources with
ast.  Names a module lists in __all__ are re-exports and count as used.
"""

import ast
from pathlib import Path

import pytest

import ckgeo

SOURCES = sorted(Path(ckgeo.__file__).parent.glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}


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
    tree = TREES[path]
    used = _used(tree)
    unused = sorted(
        "%s (line %d)" % (name, line) for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


def test_checker_flags_an_unused_import():
    tree = ast.parse("import math\nfrom typing import Optional, Tuple\nx: Tuple = ()\n")
    assert set(_imported(tree)) - _used(tree) == {"math", "Optional"}


def _private_definitions(tree: ast.Module) -> dict:
    """Name -> line of each private module-level function, class or constant."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _loaded(trees) -> set:
    """Every name read as a Name or an Attribute in the given modules."""
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    loaded = _loaded(TREES.values())
    dead = sorted(
        "%s (line %d)" % (name, line)
        for name, line in _private_definitions(TREES[path]).items()
        if name not in loaded
    )
    assert not dead, "%s defines private names the package never reads: %s" % (
        path.name,
        ", ".join(dead),
    )


def test_checker_flags_a_dead_private_name():
    mod = ast.parse(
        "_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n"
        "def _helper():\n    return _LIMIT\n"
        "def _dead():\n    _local = 1\n    return _local\n"
        "class _Hidden:\n    pass\n"
    )
    user = ast.parse("import mod\nmod._helper()\n_Hidden = None\n")
    assert set(_private_definitions(mod)) - _loaded([mod, user]) == {"_SPARE", "_dead", "_Hidden"}


def _exported(tree: ast.Module) -> list:
    """The names listed in the module's __all__ (empty when it has none)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _bound(tree: ast.Module) -> set:
    """Every name the module binds at its top level: definitions, assignments
    and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exported_names_are_defined(path):
    tree = TREES[path]
    missing = [name for name in _exported(tree) if name not in _bound(tree)]
    assert not missing, "%s lists names in __all__ it does not define: %s" % (
        path.name,
        ", ".join(missing),
    )


def test_checker_flags_a_stale_export():
    tree = ast.parse(
        "from x import a\nimport y.z\nB: int = 1\nC = D = 2\n"
        "def e():\n    f = 3\nclass G:\n    h = 4\n"
        "__all__ = ['a', 'y', 'B', 'C', 'D', 'e', 'f', 'G', 'h', 'gone']\n"
    )
    assert [name for name in _exported(tree) if name not in _bound(tree)] == ["f", "h", "gone"]
