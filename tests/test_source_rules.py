"""Quality rules for the package source, checked on its syntax tree: no
module imports another module's private names, and correctness checks
raise instead of using ``assert``, which ``python -O`` strips."""

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
