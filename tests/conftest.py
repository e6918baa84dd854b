import json
from fractions import Fraction
from itertools import combinations

import pytest

from transgraph import LineArrangement, graphs, line_from_slope_intercept, realization
from transgraph.geometry import Vec2, ZeroVector


def F(a, b=1):
    return Fraction(a, b)


class ParallelLines(Exception):
    """Raised when intersecting two parallel (or identical) lines."""


def line_intersection(l1, l2):
    """The crossing of two lines, solved in ``Fraction``s: the tests'
    reference for the package's integer crossing kernels."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLines(f"{l1} and {l2} do not meet in one point")
    x = (l1.c * l2.b - l2.c * l1.b) / det
    y = (l1.a * l2.c - l2.a * l1.c) / det
    return Vec2(x, y)


def project_param(origin, u, pt):
    """Parameter of ``pt`` projected onto the directed line origin + t*u,
    in ``Fraction``s: the tests' reference for the ordering gadget's
    integer keys.  Parameters are ordered exactly as the projections along
    the line; the origin projects to 0."""
    if u.is_zero():
        raise ZeroVector("projection direction must be nonzero")
    return u.dot(pt - origin) / u.norm_sq()


def angle_at_most_by_fractions(u, v, bound):
    """The tangent test of ``angle_at_most`` on the ``Fraction`` dot and
    cross products and the bound's (c, s): the tests' reference for the
    predicate's integer form."""
    if u.is_zero() or v.is_zero():
        raise ZeroVector("angle_at_most needs nonzero vectors")
    dot = u.dot(v)
    return dot >= 0 and abs(u.cross(v)) * bound.c <= dot * bound.s


def acute_angle_at_least_by_fractions(u, v, bound):
    """The tangent test of ``acute_angle_at_least`` in ``Fraction``s: the
    tests' reference for the predicate's integer form."""
    if u.is_zero() or v.is_zero():
        raise ZeroVector("acute_angle_at_least needs nonzero vectors")
    return abs(u.cross(v)) * bound.c >= abs(u.dot(v)) * bound.s


def opening_at_most_quarter_pi_by_fractions(sector):
    """``Sector.opening_at_most_quarter_pi`` on the ``Fraction`` doubled half
    angle: the tests' reference for its integer form."""
    double = sector.half_angle.doubled()
    return double.c >= double.s


def _observation1_per_edge(inst, graph):
    """Reference for ``check_observation1``: the bound tested once per
    mutual couple, as the checker did before it tested once per class.
    The predicate is read from ``realization`` so that a test can replace
    it in both."""
    objs = dict(inst.entries)
    failures = []
    for u, v in graph.edges:
        if (v, u) not in graph.edges or not u < v:
            continue
        x, y = objs[u], objs[v]
        bound = x.half_angle.compose(y.half_angle)
        if not realization.angle_at_most(x.direction, -y.direction, bound):
            failures.append((u, v))
    return sorted(failures)


def _wide_spread_pairwise(inst, graph):
    """Reference for ``is_wide_spread``: every pair of sectors in every
    container set tested for a shared couple partner, and the angle test
    run on the direction pairs of the qualifying pairs, as the checker did
    before it ran the angle test first."""
    sectors = inst.objects()
    index = {label: i for i, label in enumerate(inst.labels())}
    numbers = {}
    direction = [numbers.setdefault(s.direction, len(numbers)) for s in sectors]
    containers = [{d} for d in range(len(sectors))]
    couples = [{i} for i in range(len(sectors))]
    for u, v in graph.edges:
        containers[index[v]].add(index[u])
        if (v, u) in graph.edges:
            couples[index[u]].add(index[v])
    pairs = {
        tuple(sorted((direction[a], direction[b])))
        for inside in containers
        for a, b in combinations(inside, 2)
        if couples[a].isdisjoint(couples[b])
    }
    if not pairs:
        return True
    largest = min(sectors, key=lambda s: s.half_angle.c)
    if not largest.opening_at_most_quarter_pi():
        return False
    two_alpha = largest.half_angle.doubled().doubled()
    vectors = list(numbers)
    return all(
        realization.acute_angle_at_least(vectors[a], vectors[b], two_alpha)
        for a, b in pairs
    )


def intersections_by_fractions(arr):
    """Every crossing from ``line_intersection``'s ``Fraction`` solve,
    keyed by 1-based index pairs (i, j) with i < j: the tests' reference
    for the crossings read from ``LineArrangement.crossings_by_line()``."""
    return {
        (i, j): line_intersection(li, lj)
        for (i, li), (j, lj) in combinations(enumerate(arr.lines, start=1), 2)
    }


@pytest.fixture
def sort_key_calls(monkeypatch):
    """A count of the calls to ``graphs._SORT_KEY``: every vertex sort runs
    through ``graphs.sorted_labels``, which reads it when called, so
    ``sort_key_calls()`` counts the labels sorted so far."""
    key = graphs._SORT_KEY
    calls = 0

    def counting_key(label):
        nonlocal calls
        calls += 1
        return key(label)

    monkeypatch.setattr(graphs, "_SORT_KEY", counting_key)
    return lambda: calls


@pytest.fixture
def three_lines():
    # slopes 0, 1, 2 -- simple, crossings at (0,0), (1,0), (2,2)
    return LineArrangement(
        (
            line_from_slope_intercept(F(0), F(0)),
            line_from_slope_intercept(F(1), F(0)),
            line_from_slope_intercept(F(2), F(-2)),
        )
    )


@pytest.fixture
def concurrent_lines():
    # all three meet at the origin
    return LineArrangement(
        (
            line_from_slope_intercept(F(0), F(0)),
            line_from_slope_intercept(F(1), F(0)),
            line_from_slope_intercept(F(2), F(0)),
        )
    )


def version_2_text(text):
    """A version-3 document text rewritten as version 2, in the compact
    layout the version-2 writer used: in each graph, and in the two graphs
    of a report, the rows of head positions become ``[tail, head]``
    position pairs, in the same order."""
    body = json.loads(text)
    payload = body["payload"]
    if body["kind"] == "report":
        graphs = [payload["graph_from_reduction"], payload["graph_from_geometry"]]
    else:
        graphs = [payload] if body["kind"] == "graph" else []
    for graph in graphs:
        graph["edges"] = [[tail, head] for tail, row in enumerate(graph.pop("out")) for head in row]
    body["formatVersion"] = 2
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"
