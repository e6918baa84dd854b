"""Quality rules for the package source, checked on its syntax tree: no
module imports another module's private names, correctness checks raise
instead of using ``assert``, which ``python -O`` strips, no module defines
the tests' ``Fraction`` references ``line_intersection``, ``project_param``,
``ParallelLines`` or the three predicate references named
``*_by_fractions``, and none calls ``line_intersection`` or
``project_param`` (so crossings come from
``LineArrangement.crossings_by_line()`` and the gadget is ordered on
integers), every private module-level function is used
by the package itself, not only by tests, ``reductions`` emits its edges
in bulk into one list (no ``edges.add(...)``, one Python step per edge,
and no ``edges.update(...)``, a set that ``digraph`` copies), the sector side
checks read the graph's edges by label (``realization`` defines no
``_arcs`` position map),
directions and half angles are cleared only through their cached
``integers`` (``realization`` defines no ``_pair_key``, and no module but
``geometry`` passes a ``.direction`` or ``.half_angle`` component to
``cleared``),
``transmission`` defines no nested function or lambda, so its kernels
build no closure per object, no module but ``graphs`` calls
``sorted_labels`` and none defines or imports ``ranked``, so a graph's
vertices are sorted once, into its ``graphs.Frame``, and no float reaches a predicate: outside
``rendering``, which converts to floats for drawing, no module calls
``float(...)``, writes a float literal or imports ``math``, except its
integer functions, and ``serialization`` names its object types only in
its ``OBJECTS`` table: it compares nothing with ``"segment"``, ``"sector"``
or ``"disk"`` and calls no ``isinstance`` on ``Segment``, ``Sector`` or
``Disk``."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "transgraph"
MODULES = sorted(SOURCE.glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES}


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


# The tests' ``Fraction`` references, kept in ``tests/conftest.py``.
TEST_REFERENCES = {
    "line_intersection",
    "project_param",
    "ParallelLines",
    "angle_at_most_by_fractions",
    "acute_angle_at_least_by_fractions",
    "opening_at_most_quarter_pi_by_fractions",
}


def _bound_names(node):
    """The names a statement or expression node binds: a ``def`` or
    ``class``, an import, or an assignment target."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name for alias in node.names]
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return [node.id]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_defines_a_test_reference(path):
    found = [
        f"line {node.lineno}: {name}"
        for node in ast.walk(TREES[path])
        for name in _bound_names(node)
        if name in TEST_REFERENCES
    ]
    assert not found


def _calls_to(path, name):
    return [
        node.lineno
        for node in ast.walk(TREES[path])
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_intersection_call(path):
    assert not _calls_to(path, "line_intersection")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_project_param_call(path):
    assert not _calls_to(path, "project_param")


def _names_in(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_function_is_used_by_the_package(path):
    private = [
        stmt
        for stmt in TREES[path].body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
    ]
    used = set().union(
        *(
            _names_in(stmt) - ({stmt.name} if stmt in private else set())
            for tree in TREES.values()
            for stmt in tree.body
        )
    )
    unused = [f"line {stmt.lineno}: {stmt.name}" for stmt in private if stmt.name not in used]
    assert not unused


def test_reductions_emit_edges_in_bulk():
    calls = [
        node.lineno
        for node in ast.walk(TREES[SOURCE / "reductions.py"])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("add", "update")
        and getattr(node.func.value, "id", None) == "edges"
    ]
    assert not calls


def _realization_functions():
    return [
        stmt.name
        for stmt in TREES[SOURCE / "realization.py"].body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_realization_defines_no_arcs_map():
    assert "_arcs" not in _realization_functions()


def test_realization_defines_no_pair_key():
    assert "_pair_key" not in _realization_functions()


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "geometry.py"], ids=lambda p: p.name
)
def test_no_direction_or_half_angle_is_cleared_outside_geometry(path):
    found = [
        f"line {node.lineno}: .{inner.attr}"
        for node in ast.walk(TREES[path])
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cleared"
        for arg in node.args
        for inner in ast.walk(arg)
        if isinstance(inner, ast.Attribute) and inner.attr in ("direction", "half_angle")
    ]
    assert not found


FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def test_transmission_defines_no_nested_function():
    nested = [
        f"line {inner.lineno}"
        for outer in ast.walk(TREES[SOURCE / "transmission.py"])
        if isinstance(outer, FUNCTION_NODES)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, FUNCTION_NODES)
    ]
    assert not nested


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "graphs.py"], ids=lambda p: p.name
)
def test_no_second_vertex_sort_outside_graphs(path):
    assert not _calls_to(path, "sorted_labels")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_defines_or_imports_ranked(path):
    found = [
        f"line {node.lineno}: {name}"
        for node in ast.walk(TREES[path])
        for name in _bound_names(node)
        if name == "ranked"
    ]
    assert not found


# The functions of ``math`` that take and return integers only.
INTEGER_MATH = {"gcd", "lcm", "isqrt"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "rendering.py"], ids=lambda p: p.name
)
def test_no_float_outside_rendering(path):
    found = []
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"line {node.lineno}: float(...)")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import math" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and node.level == 0:
            found += [
                f"line {node.lineno}: from math import {a.name}"
                for a in node.names
                if a.name not in INTEGER_MATH
            ]
    assert not found


OBJECT_TYPES = {"segment", "sector", "disk"}
OBJECT_CLASSES = {"Segment", "Sector", "Disk"}


def test_serialization_names_object_types_only_in_its_table():
    found = []
    for node in ast.walk(TREES[SOURCE / "serialization.py"]):
        if isinstance(node, ast.Compare):
            found += [
                f"line {node.lineno}: compares with {operand.value!r}"
                for operand in [node.left, *node.comparators]
                if isinstance(operand, ast.Constant) and operand.value in OBJECT_TYPES
            ]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            found += [
                f"line {node.lineno}: isinstance(..., {name})"
                for name in _names_in(node.args[1])
                if name in OBJECT_CLASSES
            ]
    assert not found
