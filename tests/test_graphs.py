import copy
import gc
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import transgraph
from transgraph import graphs
from transgraph.arrangement import extract_description
from transgraph.graphs import (
    A,
    B,
    C,
    SA,
    SB,
    SC,
    Frame,
    Label,
    digraph,
    frame,
    free,
    graph_diff,
)
from transgraph.realization import realize_sectors
from transgraph.reductions import reduce_sectors
from transgraph.serialization import Document, document_from_json, document_to_json
from transgraph.verification import RandomSpec, random_simple_arrangement


def test_label_text():
    assert str(C(1)) == "C_1"
    assert str(A(1, 2)) == "A_1_2"
    assert str(B(3, 1)) == "B_3_1"
    assert str(SC(2, 3)) == "SC_2_3"
    assert str(SA(1, 2, 3, 1)) == "SA_1_2_3_1"
    assert str(SB(4, 1, 2, 2)) == "SB_4_1_2_2"
    assert str(free("widget")) == "widget"


def test_a_label_is_unordered():
    assert A(2, 1) == A(1, 2)
    assert A(2, 1) is A(1, 2)


def test_b_label_is_ordered():
    assert B(2, 1) != B(1, 2)


def test_labels_hashable_and_sortable():
    labels = {C(2), C(1), A(1, 2), B(1, 2)}
    assert len(labels) == 4
    assert sorted(labels) == sorted(labels, key=Label.sort_key)


def test_digraph_rejects_self_loop():
    with pytest.raises(ValueError):
        digraph([C(1)], [(C(1), C(1))])


def test_digraph_rejects_dangling_edge():
    with pytest.raises(ValueError):
        digraph([C(1)], [(C(1), C(2))])


def test_digraph_sorted_views():
    g = digraph([C(2), C(1), A(1, 2)], [(C(2), C(1)), (C(1), C(2))])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.sorted_vertices() == sorted(g.vertices, key=Label.sort_key)
    assert {b for a, b in g.edges if a == C(1)} == {C(2)}
    assert {b for a, b in g.edges if a == A(1, 2)} == set()


def test_a_frame_is_the_sorted_distinct_labels_and_their_ranks():
    vertices = frame([C(2), A(1, 2), C(1), C(2)])
    assert vertices == Frame((C(1), C(2), A(1, 2)), frozenset({C(1), C(2), A(1, 2)}), {C(1): 0, C(2): 1, A(1, 2): 2})


def test_a_graph_on_a_frame_keeps_its_parts_and_sorts_nothing(sort_key_calls):
    g = reduce_sectors(extract_description(random_simple_arrangement(RandomSpec(n=3, seed=1))))
    before = sort_key_calls()
    vertices = frame(g.vertices)
    assert sort_key_calls() - before == g.vertex_count
    h = digraph(vertices, _codes=g.codes)
    assert sort_key_calls() - before == g.vertex_count
    assert h == g and h.order is vertices.order and h.rank is vertices.rank and h.vertices is vertices.vertices


def test_graph_diff_empty_for_equal():
    g = digraph([C(1), C(2)], [(C(1), C(2))])
    h = digraph([C(2), C(1)], [(C(1), C(2))])
    d = graph_diff(g, h)
    assert d.empty
    assert g == h


def test_graph_diff_reports_direction():
    g = digraph([C(1), C(2), C(3)], [(C(1), C(2))])
    h = digraph([C(1), C(2)], [(C(2), C(1))])
    d = graph_diff(g, h)
    assert not d.empty
    # "missing" means present in the first graph only, "extra" in the second only
    assert d.missing_vertices == [C(3)]
    assert d.missing_edges == [(C(1), C(2))]
    assert d.extra_edges == [(C(2), C(1))]
    assert "C_3" in d.summary()


# --- interning and total order ---------------------------------------------


def test_equal_labels_built_apart_are_equal_with_equal_hashes():
    a, b = SC(2, 3), Label("SC", (2, 3))
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert free("x") == Label("FREE", (), "x") and hash(free("x")) == hash(Label("FREE", (), "x"))


def test_the_intern_table_keeps_a_dropped_label_for_the_life_of_the_process():
    """A label is built once per process: dropped, collected and built
    again, it is the same object, and the table still holds it."""
    key = ("FREE", (), "a label no other test builds")
    label = free(key[2])
    assert graphs._INTERNED[key] is label
    first = id(label)
    del label
    gc.collect()
    assert graphs._INTERNED[key] is free(key[2])
    assert id(free(key[2])) == first


@pytest.mark.parametrize("field", ["kind", "indices", "text"])
def test_label_fields_cannot_be_set_or_deleted(field):
    label = SA(1, 2, 3, 1)
    with pytest.raises(AttributeError):
        setattr(label, field, getattr(label, field))
    with pytest.raises(AttributeError):
        delattr(label, field)
    assert label is SA(1, 2, 3, 1) and str(label) == "SA_1_2_3_1"


def test_label_is_not_equal_to_a_tuple():
    label = C(1)
    assert label != ("C", (1,), "")
    assert ("C", (1,), "") != label
    assert label not in {("C", (1,), "")}


def test_pickle_rebuilds_the_label_from_its_fields():
    label = SA(1, 2, 3, 1)
    assert label.__reduce__() == (Label, ("SA", (1, 2, 3, 1), ""))
    assert pickle.loads(pickle.dumps(label)) == label
    assert pickle.loads(pickle.dumps(label)) is label
    assert copy.deepcopy(label) is label


# Unpickles labels and looks each up in a set of freshly built equal labels;
# exits 1 if any is missing.
_LOOKUP = """
import pickle, sys
from transgraph.graphs import A, C, SA, SC, free
labels = pickle.loads(sys.stdin.buffer.read())
fresh = {C(1), A(1, 2), SC(2, 3), SA(1, 2, 3, 1), free("widget")}
sys.exit(0 if all(label in fresh for label in labels) else 1)
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_pickled_label_is_found_under_another_hash_seed(seed):
    labels = [C(1), A(2, 1), SC(2, 3), SA(1, 2, 3, 1), free("widget")]
    src = str(Path(transgraph.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _LOOKUP], input=pickle.dumps(labels), env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_sort_key_orders_unknown_kinds_by_name_after_known_kinds():
    labels = [Label(k, (1,)) for k in "XYZWQ"] + [free("a"), C(2), SB(1, 1, 2, 1)]
    assert [str(v) for v in sorted(labels)] == [
        "C_2", "SB_1_1_2_1", "a", "Q_1", "W_1", "X_1", "Y_1", "Z_1",
    ]


def test_sorted_edges_follow_the_sort_keys_of_their_ends():
    vertices = [Label(k, (i,)) for k in ("C", "SC", "X", "W") for i in (2, 1)]
    edges = [
        (u, v)
        for i, u in enumerate(vertices)
        for j, v in enumerate(vertices)
        if i != j and (i + 2 * j) % 3
    ]
    g = digraph(vertices, edges)
    assert g.sorted_edges() == sorted(edges, key=lambda e: (e[0].sort_key(), e[1].sort_key()))


# --- edge codes --------------------------------------------------------------


def _tracked_while_alive(build):
    """``build()``'s result, and how many more objects the cyclic collector
    tracks while it is alive.  The collector is paused meanwhile, so nothing
    is collected or untracked, and restored afterwards."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = build()
        return kept, len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("source", ["reduce_sectors", "realize_sectors", "document"])
def test_a_graph_keeps_no_gc_tracked_object_per_edge(source):
    """A graph holds its E edges as ints, which the collector does not track,
    so building one leaves far fewer than E new tracked objects alive.  The
    labels are interned by a first reduction kept alive throughout, so only
    what a build adds is counted.  A realization is counted through its
    graph: its instance holds a few tracked objects per sector, not per
    edge."""
    arr = random_simple_arrangement(RandomSpec(n=5, seed=1))
    desc = extract_description(arr)
    first = reduce_sectors(desc)
    text = document_to_json(Document("graph", first))
    build = {
        "reduce_sectors": lambda: reduce_sectors(desc),
        "realize_sectors": lambda: realize_sectors(arr).graph,
        "document": lambda: document_from_json(text).payload,
    }[source]
    graph, tracked = _tracked_while_alive(build)
    assert graph == first and first.edge_count == 7200
    assert tracked < first.edge_count / 10


def _label(kind, i):
    if kind == "FREE":
        return free(f"v{i}")
    if kind in ("SA", "SB"):
        return Label(kind, (i, 1, i + 1, 2))
    return Label(kind, (i,) if kind != "SC" else (i, 1))


# Known kinds, FREE labels and kinds with no rank of their own.
LABELS = st.builds(_label, st.sampled_from(["C", "A", "SC", "SA", "SB", "FREE", "X", "Q"]), st.integers(1, 3))


@st.composite
def label_graphs(draw):
    """(vertices, edges): a list of labels, with repeats, and label pairs
    between distinct ones."""
    vertices = draw(st.lists(LABELS, max_size=8))
    distinct = list(dict.fromkeys(vertices))
    pairs = [(u, v) for u in distinct for v in distinct if u is not v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return vertices, edges


def _reference_codes(vertices, edges):
    """rank(tail) * V + rank(head) over the vertices sorted by ``sort_key``."""
    order = sorted(set(vertices), key=Label.sort_key)
    rank = {label: i for i, label in enumerate(order)}
    return order, {rank[u] * len(order) + rank[v] for u, v in edges}


def _edge_key(edge):
    return edge[0].sort_key(), edge[1].sort_key()


@settings(max_examples=150, deadline=None)
@given(label_graphs(), label_graphs())
def test_graphs_from_codes_agree_with_graphs_from_label_pairs(first, second):
    vertices, edges = first
    order, codes = _reference_codes(vertices, edges)
    count = len(order)
    rows = [sorted(code % count for code in codes if code // count == t) for t in range(count)]
    from_pairs, from_codes = digraph(vertices, edges), digraph(vertices, _codes=codes)
    for g in (from_pairs, from_codes):
        assert g.vertices == frozenset(vertices) and g.edges == frozenset(edges)
        assert g.sorted_vertices() == order
        assert g.rows() == (order, rows)
        assert g.sorted_edges() == sorted(set(edges), key=_edge_key)
        assert g.edge_count == len(set(edges)) and g.vertex_count == len(order)
    assert from_pairs == from_codes and hash(from_pairs) == hash(from_codes)
    for copied in (pickle.loads(pickle.dumps(from_codes)), copy.deepcopy(from_codes)):
        assert copied == from_pairs and copied.edges == from_pairs.edges
    assert replace(from_codes, edges=frozenset(edges)) == from_pairs

    other = digraph(*second)
    for g, h in ((from_codes, other), (other, from_codes)):
        diff = graph_diff(g, h)
        assert diff.missing_vertices == sorted(g.vertices - h.vertices, key=Label.sort_key)
        assert diff.extra_vertices == sorted(h.vertices - g.vertices, key=Label.sort_key)
        assert diff.missing_edges == sorted(g.edges - h.edges, key=_edge_key)
        assert diff.extra_edges == sorted(h.edges - g.edges, key=_edge_key)
        assert diff.empty == (g == h)

    assert document_from_json(document_to_json(Document("graph", from_codes))).payload == from_pairs


@settings(max_examples=150, deadline=None)
@given(label_graphs())
@example(([], []))
@example(([free("a")], []))
def test_rows_split_the_sorted_codes_and_round_trip(graph):
    """A graph's rows are its sorted codes grouped by tail, one ascending
    row per vertex, and read row by row they are ``sorted_edges()``; its
    text decodes to it and re-encodes to the same bytes."""
    g = digraph(*graph)
    order, rows = g.rows()
    assert order == g.sorted_vertices() and len(rows) == g.vertex_count
    assert [t * len(order) + h for t, row in enumerate(rows) for h in row] == sorted(g.codes)
    assert [(order[t], order[h]) for t, row in enumerate(rows) for h in row] == g.sorted_edges()
    assert all(row == sorted(set(row)) for row in rows)
    text = document_to_json(Document("graph", g))
    assert json.loads(text)["payload"]["out"] == rows
    back = document_from_json(text).payload
    assert back == g and document_to_json(Document("graph", back)) == text


def test_couples_are_the_edges_whose_reverse_is_an_edge_taken_once():
    pairs = [(C(1), C(2)), (C(2), C(1)), (C(3), C(1)), (A(1, 2), C(3)), (C(3), A(1, 2))]
    g = digraph([C(1), C(2), C(3), A(1, 2)], pairs)
    couples = [divmod(code, g.vertex_count) for code in g.couples]
    assert [(g.order[t], g.order[h]) for t, h in couples] == [(C(1), C(2)), (C(3), A(1, 2))]
