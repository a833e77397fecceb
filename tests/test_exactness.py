"""The exactness contract, read off the package source: no floating point,
no dependency outside the standard library, and no ``assert`` (it vanishes
under ``python -O``; invariants raise explicit errors instead)."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "monoalg")
                 .glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stdlib_only_and_no_floats(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not isinstance(node, ast.Assert), where
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                assert top in sys.stdlib_module_names, where
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            assert top in sys.stdlib_module_names, where
        elif isinstance(node, ast.Constant):
            assert not isinstance(node.value, float), where
        elif isinstance(node, ast.Name):
            assert node.id != "float", where
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.Div), where
