import json
from fractions import Fraction
from itertools import combinations

import pytest

from transgraph import LineArrangement, line_from_slope_intercept
from transgraph.geometry import line_intersection


def F(a, b=1):
    return Fraction(a, b)


def intersections_by_fractions(arr):
    """Every crossing from ``line_intersection``'s ``Fraction`` solve,
    keyed by 1-based index pairs (i, j) with i < j: the tests' reference
    for the crossings read from ``LineArrangement.crossings_by_line()``."""
    return {
        (i, j): line_intersection(li, lj)
        for (i, li), (j, lj) in combinations(enumerate(arr.lines, start=1), 2)
    }


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
