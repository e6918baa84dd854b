"""Reduction outputs are checked against independent brute-force enumerations.

The oracle functions below rebuild both edge sets from scratch with plain
loops; they share nothing with the implementation except the label
constructors.
"""

import sys
from itertools import combinations

import pytest

from transgraph import reductions
from transgraph.arrangement import description, extract_description
from transgraph.graphs import A, B, C, SA, SB, SC, Label, digraph, graph_diff
from transgraph.reductions import (
    SECTOR_FAMILIES,
    SEGMENT_FAMILIES,
    InvalidDescription,
    NonSimpleDescription,
    reduce_sectors,
    reduce_segments,
    sector_vertex_count,
    segment_vertex_count,
)
from transgraph.verification import RandomSpec, random_simple_arrangement

MS = (1, 2, 3)


def oracle_segment_families(desc):
    fam = {f: set() for f in SEGMENT_FAMILIES}
    n = desc.n
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if k == i:
                continue
            fam["CA"].add((C(i), A(i, k)))
            fam["CB"].add((C(i), B(i, k)))
            fam["BC"].add((B(i, k), C(i)))
        order = desc.flat_order(i)
        for kpos in range(len(order)):
            for lpos in range(kpos + 1):
                if lpos < kpos:
                    fam["BORDER"].add((B(i, order[kpos]), B(i, order[lpos])))
                fam["BORDER"].add((B(i, order[kpos]), A(i, order[lpos])))
    return fam


def oracle_sector_families(desc):
    n = desc.n
    fam = {f: set() for f in SECTOR_FAMILIES}
    pairs = [(i, k) for i in range(1, n + 1) for k in range(1, n + 1) if i != k]
    for i, k in pairs:
        for m in MS:
            for mp in MS:
                fam["EI"].add((SC(i, m), SA(i, m, k, mp)))
                fam["EI"].add((SC(i, m), SA(k, mp, i, m)))
                fam["EC"].add((SA(i, m, k, mp), SC(i, m)))
                fam["EC"].add((SC(i, m), SB(i, m, k, mp)))
                fam["EC"].add((SB(i, m, k, mp), SC(i, m)))
    for i in range(1, n + 1):
        order = desc.flat_order(i)
        for lpos, kpos in combinations(range(len(order)), 2):
            ol, ok = order[kpos], order[lpos]  # ol sits later in the order
            for m in MS:
                for mp in MS:
                    for mpp in MS:
                        fam["EGO"].add((SA(i, m, ol, mp), SA(i, m, ok, mpp)))
                        fam["EGO"].add((SA(i, m, ol, mp), SA(ok, mpp, i, m)))
                        fam["EGO"].add((SA(i, m, ol, mp), SB(i, m, ok, mpp)))
                        fam["EGO"].add((SB(i, m, ol, mp), SA(i, m, ok, mpp)))
                        fam["EGO"].add((SB(i, m, ol, mp), SA(ok, mpp, i, m)))
                        fam["EGO_BB"].add((SB(i, m, ol, mp), SB(i, m, ok, mpp)))
        for ok in order:
            local = fam["ELOI"] if ok > i else fam["ELOD"]
            for m in MS:
                for mp in MS:
                    for mpp in MS:
                        if ok > i:
                            strict, weak = mpp < mp, mpp <= mp
                        else:
                            strict, weak = mpp > mp, mpp >= mp
                        if strict:
                            local.add((SA(i, m, ok, mp), SA(i, m, ok, mpp)))
                            local.add((SA(i, m, ok, mp), SA(ok, mpp, i, m)))
                            local.add((SA(i, m, ok, mp), SB(i, m, ok, mpp)))
                            local.add((SB(i, m, ok, mp), SB(i, m, ok, mpp)))
                        if weak:
                            local.add((SB(i, m, ok, mp), SA(i, m, ok, mpp)))
                            local.add((SB(i, m, ok, mp), SA(ok, mpp, i, m)))
    return fam


def oracle_segment_edges(desc):
    return set().union(*oracle_segment_families(desc).values())


def oracle_sector_edges(desc):
    return set().union(*oracle_sector_families(desc).values())


DESC2 = description(2, [[[2]], [[1]]])
DESC3 = description(3, [[[2], [3]], [[1], [3]], [[1], [2]]])


@pytest.mark.parametrize("reduce", [reduce_segments, reduce_sectors])
def test_edges_share_the_vertex_label_objects(reduce):
    desc = extract_description(random_simple_arrangement(RandomSpec(4, 1)))
    g = reduce(desc)
    vertex_ids = {id(v) for v in g.vertices}
    assert all(id(u) in vertex_ids and id(v) in vertex_ids for u, v in g.edges)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("reduce", [reduce_segments, reduce_sectors])
def test_each_edge_code_is_emitted_once(reduce, n, monkeypatch):
    """The edge families are disjoint, so the list of codes a reduction
    hands to ``digraph`` holds each edge once, and freezing it is the only
    set the codes go into."""
    handed = []

    def recording_digraph(vertices, *, _codes):
        handed.append(_codes)
        return digraph(vertices, _codes=_codes)

    monkeypatch.setattr(reductions, "digraph", recording_digraph)
    g = reduce(extract_description(random_simple_arrangement(RandomSpec(n, 1))))
    [codes] = handed
    assert isinstance(codes, list) and len(codes) == g.edge_count


# --- segments --------------------------------------------------------------


def test_segment_counts_n2():
    g = reduce_segments(DESC2)
    assert g.vertex_count == 5
    assert g.edge_count == 8


def test_segment_vertices_n3():
    g = reduce_segments(DESC3)
    assert g.vertex_count == 12
    assert {v for v in g.vertices if v.kind == "C"} == {C(1), C(2), C(3)}
    assert {b for a, b in g.edges if a == C(1)} == {A(1, 2), A(1, 3), B(1, 2), B(1, 3)}


@pytest.mark.parametrize("desc", [DESC2, DESC3], ids=["n2", "n3"])
def test_segment_edges_match_oracle(desc):
    g = reduce_segments(desc)
    assert set(g.edges) == oracle_segment_edges(desc)


def test_segment_edges_match_oracle_random():
    for seed in range(5):
        desc = extract_description(
            random_simple_arrangement(RandomSpec(n=4, seed=seed))
        )
        assert set(reduce_segments(desc).edges) == oracle_segment_edges(desc)


def test_segment_vertex_count_formula():
    for n in range(2, 9):
        # n hubs + C(n,2) unordered crossing vertices + n(n-1) order vertices
        assert segment_vertex_count(n) == n + n * (n - 1) // 2 + n * (n - 1)


def test_segment_reduction_deterministic():
    assert reduce_segments(DESC3) == reduce_segments(DESC3)


def test_segment_a_vertices_are_sinks():
    g = reduce_segments(DESC3)
    for v in g.vertices:
        if v.kind == "A":
            assert not {b for a, b in g.edges if a == v}


# --- sectors ---------------------------------------------------------------


def test_sector_counts_n2():
    g = reduce_sectors(DESC2)
    assert g.vertex_count == 42
    assert g.edge_count == 234
    by_kind = {}
    for u, v in g.edges:
        by_kind[(u.kind, v.kind)] = by_kind.get((u.kind, v.kind), 0) + 1
    # the couple scaffold alone: 36 containments of a-vertices by hubs,
    # 54 edges tying each a/b vertex back and forth to its hub
    assert by_kind[("SC", "SA")] == 36
    assert (
        by_kind[("SA", "SC")] + by_kind[("SC", "SB")] + by_kind[("SB", "SC")] == 54
    )


def test_sector_counts_n3():
    g = reduce_sectors(DESC3)
    assert g.vertex_count == 117
    assert g.edge_count == 1188


@pytest.mark.parametrize("desc", [DESC2, DESC3], ids=["n2", "n3"])
def test_sector_edges_match_oracle(desc):
    g = reduce_sectors(desc)
    assert set(g.edges) == oracle_sector_edges(desc)


def test_sector_edges_match_oracle_random():
    for seed in range(3):
        desc = extract_description(
            random_simple_arrangement(RandomSpec(n=4, seed=seed))
        )
        assert set(reduce_sectors(desc).edges) == oracle_sector_edges(desc)


def test_sector_vertex_count_formula():
    for n in range(2, 9):
        assert sector_vertex_count(n) == 3 * n + 18 * n * (n - 1)
        assert reduce_sectors_vertexcount(n) == sector_vertex_count(n)


def reduce_sectors_vertexcount(n):
    orders = [
        [[k] for k in range(1, n + 1) if k != i] for i in range(1, n + 1)
    ]
    return reduce_sectors(description(n, orders)).vertex_count


def test_sector_couple_pairs_bidirectional():
    g = reduce_sectors(DESC3)
    edges = set(g.edges)
    for v in g.vertices:
        if v.kind in ("SA", "SB"):
            i, m = v.indices[0], v.indices[1]
            assert (v, SC(i, m)) in edges
            if v.kind == "SB":
                assert (SC(i, m), v) in edges


def test_sector_edge_growth_is_cubic():
    counts = []
    for n in range(2, 9):
        orders = [
            [[k] for k in range(1, n + 1) if k != i] for i in range(1, n + 1)
        ]
        counts.append(reduce_sectors(description(n, orders)).edge_count)
    # edge count is Theta(n^3): the per-n ratio to n^3 stays within a band
    ratios = [c / n**3 for c, n in zip(counts, range(2, 9))]
    assert max(ratios) < 4 * min(ratios)


def test_sector_reduction_deterministic():
    assert reduce_sectors(DESC3) == reduce_sectors(DESC3)


# --- input validation ------------------------------------------------------


def test_nonsimple_description_rejected():
    tied = description(3, [[[2, 3]], [[1, 3]], [[1, 2]]])
    with pytest.raises(NonSimpleDescription):
        reduce_segments(tied)
    with pytest.raises(NonSimpleDescription):
        reduce_sectors(tied)


def test_invalid_description_rejected():
    bad = description(3, [[[2]], [[1], [3]], [[1], [2]]])
    with pytest.raises(InvalidDescription):
        reduce_segments(bad)
    with pytest.raises(InvalidDescription):
        reduce_sectors(bad)


# --- family omission (mutation hooks) --------------------------------------


@pytest.mark.parametrize("family", SEGMENT_FAMILIES)
def test_segment_omit_strictly_shrinks(family):
    full = reduce_segments(DESC3)
    mutated = reduce_segments(DESC3, omit=(family,))
    d = graph_diff(full, mutated)
    assert d.missing_edges and not d.extra_edges


@pytest.mark.parametrize("family", SECTOR_FAMILIES)
def test_sector_omit_strictly_shrinks(family):
    full = reduce_sectors(DESC3)
    mutated = reduce_sectors(DESC3, omit=(family,))
    d = graph_diff(full, mutated)
    assert d.missing_edges and not d.extra_edges


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        reduce_segments(DESC2, omit=("NOPE",))
    with pytest.raises(ValueError):
        reduce_sectors(DESC2, omit=("NOPE",))


OMIT_DESCS = {
    "n3": DESC3,
    "n4": extract_description(random_simple_arrangement(RandomSpec(n=4, seed=0))),
    "n5": extract_description(random_simple_arrangement(RandomSpec(n=5, seed=1))),
}
REDUCTIONS = {
    "segments": (reduce_segments, SEGMENT_FAMILIES, oracle_segment_families),
    "sectors": (reduce_sectors, SECTOR_FAMILIES, oracle_sector_families),
}


@pytest.mark.parametrize("desc", OMIT_DESCS.values(), ids=OMIT_DESCS.keys())
@pytest.mark.parametrize("mode", REDUCTIONS)
def test_omitting_a_family_drops_exactly_its_oracle_edges(mode, desc):
    reduce, families, oracle = REDUCTIONS[mode]
    full = reduce(desc)
    expected = oracle(desc)
    for family in families:
        assert full.edges - reduce(desc, omit=(family,)).edges == expected[family], family
    bare = reduce(desc, omit=families)
    assert bare.vertices == full.vertices and not bare.edges


# --- one vertex frame per n ------------------------------------------------


def oracle_segment_vertices(n):
    lines = range(1, n + 1)
    return [C(i) for i in lines] + [A(i, k) for i, k in combinations(lines, 2)] + [
        B(i, k) for i in lines for k in lines if k != i
    ]


def oracle_sector_vertices(n):
    lines = range(1, n + 1)
    parts = [(i, m, k, mp) for i in lines for k in lines if k != i for m in MS for mp in MS]
    return [SC(i, m) for i in lines for m in MS] + [SA(*p) for p in parts] + [SB(*p) for p in parts]


ORACLE_VERTICES = {"segments": oracle_segment_vertices, "sectors": oracle_sector_vertices}


@pytest.mark.parametrize("mode", REDUCTIONS)
def test_graphs_of_one_n_share_one_frame(mode):
    reduce = REDUCTIONS[mode][0]
    first, second = (extract_description(random_simple_arrangement(RandomSpec(4, seed))) for seed in (0, 1))
    g, h = reduce(first), reduce(second)
    assert g.codes != h.codes
    assert g.order is h.order and g.rank is h.rank and g.vertices is h.vertices
    other = reduce(DESC3)
    assert other.order is not g.order and other.rank is not g.rank


@pytest.mark.parametrize("mode", REDUCTIONS)
def test_a_later_reduction_of_one_n_builds_no_label_and_sorts_nothing(mode, sort_key_calls):
    reduce = REDUCTIONS[mode][0]
    desc = extract_description(random_simple_arrangement(RandomSpec(6, 3)))
    reduce(desc)
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code is Label.__new__.__code__

    before = sort_key_calls()
    sys.setprofile(profile)
    try:
        reduce(desc, omit=REDUCTIONS[mode][1][:1])
        reduce(desc)
    finally:
        sys.setprofile(None)
    assert built == 0 and sort_key_calls() == before


@pytest.mark.parametrize("desc", OMIT_DESCS.values(), ids=OMIT_DESCS.keys())
@pytest.mark.parametrize("mode", REDUCTIONS)
def test_a_graph_on_a_cached_frame_equals_one_built_from_label_pairs(mode, desc):
    reduce, families, oracle = REDUCTIONS[mode]
    reduce(desc)
    expected = oracle(desc)
    labels = ORACLE_VERTICES[mode](desc.n)
    for omit in ((), families[:1], families[-1:]):
        g = reduce(desc, omit=omit)
        h = digraph(labels, set().union(*(expected[f] for f in families if f not in omit)))
        assert g == h and g.order == h.order and g.rank == h.rank and g.codes == h.codes, omit
