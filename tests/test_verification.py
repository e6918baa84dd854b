import inspect
import sys
from fractions import Fraction

import pytest

from transgraph import graphs, realization
from transgraph.arrangement import is_simple
from transgraph.graphs import B, DiffReport, Label, graph_diff
from transgraph.realization import realize_segments
from transgraph.transmission import instance, transmission_graph
from transgraph.verification import (
    RandomSpec,
    random_simple_arrangement,
    round_trip_sectors,
    round_trip_segments,
)

F = Fraction


def test_random_arrangement_is_deterministic():
    a1 = random_simple_arrangement(RandomSpec(n=4, seed=7))
    a2 = random_simple_arrangement(RandomSpec(n=4, seed=7))
    assert a1 == a2


def test_random_arrangement_varies_with_seed():
    a1 = random_simple_arrangement(RandomSpec(n=4, seed=1))
    a2 = random_simple_arrangement(RandomSpec(n=4, seed=2))
    assert a1 != a2


def test_random_arrangement_is_simple():
    for seed in range(10):
        assert is_simple(random_simple_arrangement(RandomSpec(n=5, seed=seed)))


def test_round_trip_segments_small():
    arr = random_simple_arrangement(RandomSpec(n=2, seed=0))
    rep = round_trip_segments(arr)
    assert rep.passed
    assert rep.graph_from_reduction.vertex_count == 5
    assert rep.graph_from_geometry.vertex_count == 5
    assert "PASS" in rep.summary()


def test_round_trip_segments_several_sizes():
    for n in (3, 4, 5):
        rep = round_trip_segments(random_simple_arrangement(RandomSpec(n=n, seed=n)))
        assert rep.passed, rep.summary()


def test_round_trip_sectors_small():
    arr = random_simple_arrangement(RandomSpec(n=2, seed=0))
    rep = round_trip_sectors(arr)
    assert rep.passed, rep.summary()
    assert rep.graph_from_reduction.vertex_count == 42
    assert [name for name, _, _ in rep.checker_results] == [
        "equiangular",
        "alpha at most pi/4",
        "wide spread",
        "observation-1 sweep",
        "ordering gadget sweep",
    ]
    assert rep.parameters  # certified parameters are reported


def test_round_trip_sectors_checks_side_conditions_once(monkeypatch):
    arr = random_simple_arrangement(RandomSpec(n=2, seed=0))
    calls = []
    original = realization.is_equiangular

    def counting(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(realization, "is_equiangular", counting)
    realization.realize_sectors(arr)
    alone = len(calls)
    calls.clear()
    round_trip_sectors(arr)
    assert len(calls) == alone > 0


def test_round_trip_sectors_n3():
    rep = round_trip_sectors(random_simple_arrangement(RandomSpec(n=3, seed=1)))
    assert rep.passed, rep.summary()


def _label_calls_in_graph_code(run):
    """Python-level calls into ``Label`` methods made inside ``digraph``
    and inside every ``graph_diff`` that finds the graphs equal, during
    ``run()``.  A diff that finds differences sorts them for its report,
    so such a diff is not counted."""
    label_code = {
        f.__code__ for f in (getattr(Label, name) for name in vars(Label)) if inspect.isfunction(f)
    }
    graph_code = {graphs.graph_diff.__code__, graphs.digraph.__code__}
    open_counts = []
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            if frame.f_code in graph_code:
                open_counts.append(0)
            elif open_counts and frame.f_code in label_code:
                open_counts[-1] += 1
        elif event == "return" and frame.f_code in graph_code:
            made = open_counts.pop()
            if not isinstance(arg, DiffReport) or arg.empty:
                calls += made

    sys.setprofile(profile)
    try:
        assert run().passed
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("trip, n", [(round_trip_segments, 8), (round_trip_sectors, 3)])
def test_graphs_are_built_and_compared_without_calling_label_methods(trip, n):
    """Labels are interned, so building and diffing the round trip's graphs
    hashes and compares every label by identity, in C."""
    arr = random_simple_arrangement(RandomSpec(n=n, seed=1))
    assert _label_calls_in_graph_code(lambda: trip(arr)) == 0


def test_fault_injection_missing_object_is_detected(three_lines):
    # drop one geometric object; the diff must name the lost vertex
    real = realize_segments(three_lines)
    broken = instance(
        [(lbl, obj) for lbl, obj in real.instance.entries if lbl != B(1, 2)]
    )
    diff = graph_diff(real.graph, transmission_graph(broken))
    assert not diff.empty
    assert B(1, 2) in diff.missing_vertices


def test_round_trip_report_is_reproducible():
    arr = random_simple_arrangement(RandomSpec(n=3, seed=5))
    r1, r2 = round_trip_segments(arr), round_trip_segments(arr)
    assert r1.graph_from_geometry == r2.graph_from_geometry
    assert r1.summary() == r2.summary()
