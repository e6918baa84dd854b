import pytest

from transgraph.graphs import (
    A,
    B,
    C,
    SA,
    SB,
    SC,
    Label,
    digraph,
    free,
    graph_diff,
)


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
