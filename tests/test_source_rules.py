"""Quality rules for the package source, checked on its syntax tree: no
module imports another module's private names, correctness checks raise
instead of using ``assert``, which ``python -O`` strips, and crossings
come from ``LineArrangement.intersections()`` rather than a fresh
``line_intersection`` solve."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "transgraph"
MODULES = sorted(SOURCE.glob("*.py"))


def test_the_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("transgraph"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_intersection_call(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "line_intersection"
    ]
    assert not calls
