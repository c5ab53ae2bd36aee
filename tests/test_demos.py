"""The demos import only names that the package exports."""
import ast
from pathlib import Path

import pytest

import randpoly

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def imported_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "randpoly"
            for alias in node.names]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_exported(path):
    names = imported_names(path)
    assert names, f"{path.name} imports nothing from randpoly"
    missing = [n for n in names if n not in randpoly.__all__]
    assert not missing, f"{path.name} imports unexported {missing}"
