from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transgraph.geometry import (
    Disk,
    Sector,
    Segment,
    rotate,
    rotation_from_parameter,
    vec,
)
from transgraph.graphs import free, graph_diff
from transgraph.transmission import (
    _scale_vec,
    distinguished_point,
    instance,
    transmission_graph,
)

F = Fraction


def test_distinguished_points():
    assert distinguished_point(Segment(vec(1, 2), vec(3, 4))) == vec(1, 2)
    sec = Sector(vec(5, 6), vec(1, 0), rotation_from_parameter(F(1, 3)), F(1))
    assert distinguished_point(sec) == vec(5, 6)
    assert distinguished_point(Disk(vec(7, 8), F(2))) == vec(7, 8)


def test_non_integral_scaled_coordinate_raises():
    assert _scale_vec(vec(F(1, 2), F(3, 4)), 4) == (2, 3)
    with pytest.raises(ValueError):
        _scale_vec(vec(F(1, 2), F(1, 3)), 2)


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
    import pytest

    from transgraph.transmission import DuplicateLabel

    with pytest.raises(DuplicateLabel):
        instance(
            [
                (free("s"), Segment(vec(0, 0), vec(1, 0))),
                (free("s"), Segment(vec(0, 0), vec(0, 1))),
            ]
        )


def _motion(pt, rot, shift):
    return rotate(pt, rot) + shift


def _moved(obj, rot, shift):
    if isinstance(obj, Segment):
        return Segment(_motion(obj.p, rot, shift), _motion(obj.q, rot, shift))
    if isinstance(obj, Sector):
        return Sector(
            _motion(obj.apex, rot, shift),
            rotate(obj.direction, rot),
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
