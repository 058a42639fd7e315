"""The tolerances are one fixed policy: no call or subcommand overrides them,
and every value lives in ckgeo.tolerance."""

import ast
import inspect
from pathlib import Path

import pytest

import ckgeo
from ckgeo import MPlane, Space
from ckgeo.cli import main

TOLERANCE_VALUES = {1e-8, 1e-9, 1e-12, 1e-15, 1e150}


def _public_callables():
    for name in ckgeo.__all__:
        obj = getattr(ckgeo, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            yield name, obj
    for cls in (Space, MPlane):
        for name, fn in vars(cls).items():
            if not name.startswith("_") and callable(fn):
                yield "%s.%s" % (cls.__name__, name), fn


def test_only_gmeasure_from_cs_takes_a_tolerance():
    takers = sorted(
        name for name, fn in _public_callables() if "tol" in inspect.signature(fn).parameters
    )
    assert takers == ["gmeasure_from_cs"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--space", "pe", "--p", "1,0,0", "--q", "1,3,4"],
        ["angle", "--space", "ee", "--x", "[[1,0,0],[0,1,0]]", "--y", "[[1,0,0],[0,0,1]]"],
        ["triangle", "--space", "ee", "--b", "1", "--alpha", "1", "--c", "1"],
        ["volume", "--space", "ee", "--vertices", "[[1,0,0],[0,1,0]]", "--samples", "1000"],
        ["transform", "--space", "ee", "--validate", "[[1,0,0],[0,1,0],[0,0,1]]"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_subcommand_accepts_tol(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--tol", "1e-9"]) == 2


def test_tolerance_values_live_in_one_module():
    package = Path(ckgeo.__file__).parent
    found = [
        "%s:%d %r" % (path.name, node.lineno, node.value)
        for path in sorted(package.glob("*.py"))
        if path.name != "tolerance.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and node.value in TOLERANCE_VALUES
    ]
    assert not found
