import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transgraph import transmission
from transgraph.geometry import (
    Disk,
    Sector,
    Rotation,
    Segment,
    rotation_from_parameter,
    vec,
)
from transgraph.graphs import C, free, graph_diff
from transgraph.realization import realize_sectors, realize_segments
from transgraph.transmission import distinguished_point, instance, transmission_graph
from transgraph.verification import RandomSpec, random_simple_arrangement

F = Fraction


def test_distinguished_points():
    assert distinguished_point(Segment(vec(1, 2), vec(3, 4))) == vec(1, 2)
    sec = Sector(vec(5, 6), vec(1, 0), rotation_from_parameter(F(1, 3)), F(1))
    assert distinguished_point(sec) == vec(5, 6)
    assert distinguished_point(Disk(vec(7, 8), F(2))) == vec(7, 8)


def test_segment_transmission_edge():
    s1 = Segment(vec(0, 0), vec(4, 0))
    s2 = Segment(vec(2, 0), vec(2, 3))  # start point on s1, far end off it
    inst = instance([(free("s1"), s1), (free("s2"), s2)])
    g = transmission_graph(inst)
    assert set(g.edges) == {(free("s1"), free("s2"))}


def test_disjoint_objects_give_empty_graph():
    inst = instance(
        [
            (free("a"), Segment(vec(0, 0), vec(1, 0))),
            (free("b"), Segment(vec(5, 5), vec(6, 5))),
        ]
    )
    assert transmission_graph(inst).edge_count == 0


def test_mutual_sector_couple_gives_both_edges():
    half = rotation_from_parameter(F(1, 10))
    x = Sector(vec(0, 0), vec(1, 0), half, F(9))
    y = Sector(vec(2, 0), vec(-1, 0), half, F(9))
    inst = instance([(free("x"), x), (free("y"), y)])
    g = transmission_graph(inst)
    assert set(g.edges) == {(free("x"), free("y")), (free("y"), free("x"))}


def test_disk_center_containment():
    inst = instance(
        [
            (free("big"), Disk(vec(0, 0), F(25))),
            (free("small"), Disk(vec(3, 0), F(1))),
        ]
    )
    g = transmission_graph(inst)
    assert set(g.edges) == {(free("big"), free("small"))}


def test_self_containment_gives_no_loop():
    # an object always contains its own distinguished point; no self-loops
    inst = instance([(free("s"), Segment(vec(0, 0), vec(1, 1)))])
    g = transmission_graph(inst)
    assert g.edge_count == 0


def test_duplicate_labels_rejected():
    from transgraph.transmission import DuplicateLabel

    with pytest.raises(DuplicateLabel):
        instance(
            [
                (free("s"), Segment(vec(0, 0), vec(1, 0))),
                (free("s"), Segment(vec(0, 0), vec(0, 1))),
            ]
        )


def _motion(pt, rot, shift):
    return rot.apply(pt) + shift


def _moved(obj, rot, shift):
    if isinstance(obj, Segment):
        return Segment(_motion(obj.p, rot, shift), _motion(obj.q, rot, shift))
    if isinstance(obj, Sector):
        return Sector(
            _motion(obj.apex, rot, shift),
            rot.apply(obj.direction),
            obj.half_angle,
            obj.radius_sq,
        )
    return Disk(_motion(obj.center, rot, shift), obj.radius_sq)


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.fractions(min_value=-50, max_value=50, max_denominator=5),
    st.fractions(min_value=-50, max_value=50, max_denominator=5),
)
def test_transmission_invariant_under_rigid_motion(t, sx, sy):
    rot, shift = rotation_from_parameter(t), vec(sx, sy)
    objs = [
        (free("seg"), Segment(vec(0, 0), vec(4, 0))),
        (free("seg2"), Segment(vec(2, 0), vec(2, 3))),
        (free("cone"), Sector(vec(1, -1), vec(0, 1), rotation_from_parameter(F(1, 5)), F(16))),
        (free("disk"), Disk(vec(2, 1), F(9))),
    ]
    base = transmission_graph(instance(objs))
    moved = transmission_graph(
        instance([(lbl, _moved(o, rot, shift)) for lbl, o in objs])
    )
    assert graph_diff(base, moved).empty


def test_transmission_independent_of_listing_order():
    objs = [
        (free("a"), Segment(vec(0, 0), vec(4, 0))),
        (free("b"), Segment(vec(1, 0), vec(1, 2))),
        (free("c"), Disk(vec(0, 0), F(4))),
    ]
    g1 = transmission_graph(instance(objs))
    g2 = transmission_graph(instance(list(reversed(objs))))
    assert g1 == g2


coords = st.fractions(min_value=-6, max_value=6, max_denominator=4)
points = st.builds(vec, coords, coords)
radii_sq = st.fractions(min_value=F(1, 4), max_value=40, max_denominator=4)


@st.composite
def mixed_instances(draw):
    """Segments, sectors (half-angle parameter in [0, 1]) and disks, plus
    probe disks centred exactly on a sector's boundary ray or bisector;
    a sector's radius may end exactly at its probe."""
    objs = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["segment", "sector", "disk"]))
        p = draw(points)
        if kind == "segment":
            q = draw(points)
            objs.append(Segment(p, q if q != p else p + vec(1, 0)))
        elif kind == "disk":
            objs.append(Disk(p, draw(radii_sq)))
        else:
            u = draw(points.filter(lambda v: not v.is_zero()))
            half = rotation_from_parameter(
                draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
            )
            rsq = draw(radii_sq)
            probes = []
            for ray in draw(st.lists(st.sampled_from(["lo", "hi", "mid"]), max_size=3)):
                w = {"lo": Rotation(half.c, -half.s).apply(u), "hi": half.apply(u), "mid": u}[ray]
                w = w.scaled(draw(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4)))
                if draw(st.booleans()):
                    rsq = w.norm_sq()
                probes.append(Disk(p + w, draw(radii_sq)))
            objs.append(Sector(p, u, half, rsq))
            objs.extend(probes)
    return instance((free(f"o{i}"), obj) for i, obj in enumerate(objs))


directions = st.one_of(
    st.sampled_from([vec(1, 0), vec(0, 1), vec(1, 2), vec(2, -1)]),
    points.filter(lambda v: not v.is_zero()),
)
small = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def line_instances(draw):
    """Segments on one line (overlapping, nested, either way round, with
    direction vectors of different lengths such as (2, 4) and (-1, -2)),
    more on parallel lines a small rational offset away, and probe disks
    at p, at q, inside, just past either end and on the parallel line.
    A segment may start at an earlier segment's p, so two distinguished
    points coincide and tie in their place along the line, or at an
    earlier segment's far end q, so its p sits on that segment's boundary.
    With few probes a segment's ends are often the first and last points
    of its line's run, so a range can start or stop at either end of it.
    Two more segments run along a second direction through the first
    segment's p, one starting there and one drawn across it, so that point
    is shared by two direction groups and ties in the runs of both.
    Random points are almost never collinear; these are, so a segment that
    misses a point of its own line, or tests one off it, changes the graph."""
    base, d = draw(points), draw(directions)
    normal = vec(-d.y, d.x)
    offsets = [F(0), draw(st.sampled_from([F(1, 8), F(-1, 3), F(1, 2)]))]
    objs = []
    ends = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.sampled_from(["new", "shared p", "far end"])) if ends else "new"
        if start == "new":
            foot = base + normal.scaled(draw(st.sampled_from(offsets)))
            p = foot + d.scaled(draw(small))
        else:
            p = draw(st.sampled_from(ends))[start == "far end"]
        q = p + d.scaled(draw(small.filter(lambda t: t != 0)))
        objs.append(Segment(p, q))
        ends.append((p, q))
        for where in draw(st.lists(st.sampled_from(["p", "q", "in", "past", "before", "off"]), max_size=3)):
            tiny = F(1, draw(st.integers(2, 64)))
            centre = {
                "p": p,
                "q": q,
                "in": p + (q - p).scaled(draw(st.fractions(0, 1, max_denominator=5))),
                "past": q + (q - p).scaled(tiny),
                "before": p - (q - p).scaled(tiny),
                "off": p + normal.scaled(draw(st.sampled_from(offsets[1:] + [tiny]))),
            }[where]
            objs.append(Disk(centre, draw(radii_sq)))
    shared, across = ends[0][0], draw(directions.filter(lambda v: v.cross(d) != 0))
    objs.append(Segment(shared, shared + across.scaled(draw(small.filter(bool)))))
    before, after = (draw(st.fractions(lo, 2, max_denominator=4)) for lo in (0, 1))
    objs.append(Segment(shared - across.scaled(before), shared + across.scaled(after)))
    return instance((free(f"o{i}"), obj) for i, obj in enumerate(objs))


@st.composite
def cone_group_instances(draw):
    """Sectors sharing one half angle (a ray, a generic cone or a
    half-plane) whose directions are u, positive multiples of u and -u, so
    several fall into one cone group of the sweep.  Probe points lie
    exactly on either boundary ray, inside, at or just past a sector's
    radius, and sectors sit on earlier apexes and probes, so distinguished
    points coincide and the sweep keys of a point and an apex tie."""
    half = rotation_from_parameter(draw(st.sampled_from([F(0), F(1, 3), F(1)])))
    u = draw(directions)
    multiples = st.sampled_from([F(1), F(2), F(1, 2), F(-1)])
    taken = []
    objs = []
    for _ in range(draw(st.integers(2, 4))):
        d = u.scaled(draw(multiples))
        p = draw(st.sampled_from(taken)) if taken and draw(st.booleans()) else draw(points)
        rsq = draw(radii_sq)
        probes = []
        for ray in draw(st.lists(st.sampled_from(["lo", "hi"]), max_size=3)):
            w = (half if ray == "hi" else Rotation(half.c, -half.s)).apply(d)
            w = w.scaled(draw(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4)))
            where = draw(st.sampled_from(["inside", "at radius", "past radius"]))
            if where != "inside":
                rsq = w.norm_sq()
            if where == "past radius":
                w = w.scaled(1 + F(1, draw(st.integers(2, 64))))
            probes.append(p + w)
        objs.append(Sector(p, d, half, rsq))
        taken.append(p)
        for q in probes:
            if draw(st.booleans()):
                objs.append(Sector(q, u.scaled(draw(multiples)), half, draw(radii_sq)))
            else:
                objs.append(Disk(q, draw(radii_sq)))
            taken.append(q)
    return instance((free(f"o{i}"), obj) for i, obj in enumerate(objs))


@settings(max_examples=400, deadline=None)
@given(st.one_of(mixed_instances(), line_instances(), cone_group_instances()))
def test_integer_kernel_agrees_with_contains(inst):
    expected = {
        (x, y)
        for x, ox in inst.entries
        for y, oy in inst.entries
        if x != y and ox.contains(distinguished_point(oy))
    }
    assert set(transmission_graph(inst).edges) == expected


def test_segment_runs_match_all_pairs_contains_on_a_realization():
    """The seed-1 n=16 segment realization's graph equals the all-pairs
    ``Segment.contains`` graph.  Each A apex is a crossing, so it lies on
    the runs of two lines, and both C segments through it contain it."""
    inst = realize_segments(random_simple_arrangement(RandomSpec(n=16, seed=1))).instance
    points = [(y, distinguished_point(oy)) for y, oy in inst.entries]
    expected = {
        (x, y) for x, ox in inst.entries for y, pt in points if x != y and ox.contains(pt)
    }
    graph = transmission_graph(inst)
    assert set(graph.edges) == expected
    for y in inst.labels():
        if y.kind == "A":
            i, k = y.indices
            assert (C(i), y) in graph.edges and (C(k), y) in graph.edges


def test_sector_sweep_tests_only_candidates(monkeypatch):
    """On the seed-1 n=5 sector realization the sweep hands fewer than
    2*E candidates to the radius test, against m(m-1) = 140,250 pairs, so
    a fallback to testing every sector against every point fails here.
    Each sector's candidates are the suffix of the joined list that the
    kernel's ``bisect_left`` call starts; a sector instance has no segment
    runs, which call it too."""
    inst = realize_sectors(random_simple_arrangement(RandomSpec(n=5, seed=1))).instance
    real = transmission.bisect_left
    candidates = 0

    def counting_bisect_left(a, x, *args, **kwargs):
        nonlocal candidates
        start = real(a, x, *args, **kwargs)
        candidates += len(a) - start
        return start

    monkeypatch.setattr(transmission, "bisect_left", counting_bisect_left)
    edges = transmission_graph(inst).edge_count
    assert edges == 7200
    assert edges <= candidates < 2 * edges


@pytest.mark.parametrize("n", [3, 5])
def test_the_sector_kernel_hashes_no_fraction(n):
    """The cone groups are keyed by cleared integers, not by the sectors'
    ``Vec2`` and ``Rotation`` values, so building the graph of a sector
    realization hashes not one ``Fraction``."""
    inst = realize_sectors(random_simple_arrangement(RandomSpec(n=n, seed=1))).instance
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is Fraction.__hash__.__code__:
            calls += 1

    sys.setprofile(profile)
    try:
        graph = transmission_graph(inst)
    finally:
        sys.setprofile(None)
    assert graph.edge_count > 0
    assert calls == 0


@pytest.mark.parametrize("realize", [realize_segments, realize_sectors])
def test_a_transmission_graph_sorts_its_vertices_once(realize, sort_key_calls):
    inst = realize(random_simple_arrangement(RandomSpec(n=3, seed=1))).instance
    before = sort_key_calls()
    g = transmission_graph(inst)
    assert sort_key_calls() - before == g.vertex_count == len(inst.labels())
