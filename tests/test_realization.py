import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import intersections_by_fractions, line_intersection, project_param
from transgraph import arrangement, geometry, realization, transmission
from transgraph.arrangement import LineArrangement, extract_description
from transgraph.geometry import (
    Line,
    Rotation,
    Vec2,
    Sector,
    Segment,
    acute_angle_at_least,
    angle_at_most,
    rotation_from_parameter,
    vec,
)
from transgraph.graphs import A, SA, SB, SC, Label, digraph, free, graph_diff
from transgraph.realization import (
    NonSectorObject,
    NonSimpleArrangement,
    ParameterSearchExhausted,
    check_observation1,
    check_ordering_gadget,
    is_equiangular,
    is_wide_spread,
    realize_sectors,
    realize_segments,
)
from transgraph.reductions import reduce_sectors, reduce_segments, sector_order
from transgraph.transmission import instance, transmission_graph
from transgraph.verification import RandomSpec, random_simple_arrangement

F = Fraction
NARROW = rotation_from_parameter(F(1, 10))


def sector(ax, ay, dx, dy, half=NARROW, rsq=F(9)):
    return Sector(vec(ax, ay), vec(dx, dy), half, rsq)


def labelled(*sectors):
    """The sectors labelled s0, s1, ..., and their transmission graph."""
    inst = instance([(free(f"s{k}"), s) for k, s in enumerate(sectors)])
    return inst, transmission_graph(inst)


def coupled(x, y):
    return len(labelled(x, y)[1].edges) == 2


# --- mutual couples --------------------------------------------------------


def test_mutual_couple_head_on():
    x = sector(0, 0, 1, 0)
    y = sector(2, 0, -1, 0)
    assert coupled(x, y)
    assert coupled(y, x)


def test_couple_fails_when_radius_short():
    x = sector(0, 0, 1, 0, rsq=F(1))
    y = sector(2, 0, -1, 0)
    assert not coupled(x, y)


def test_couple_fails_when_facing_away():
    x = sector(0, 0, 1, 0)
    y = sector(2, 0, 1, 0)  # same direction: never sees x's apex
    assert not coupled(x, y)


def test_couple_with_itself():
    # Two copies of one sector: each contains the other's apex.
    x = sector(0, 0, 1, 0)
    assert coupled(x, x)


# --- bisectors of couples are near-antipodal -------------------------------


def test_observation1_head_on():
    assert check_observation1(*labelled(sector(0, 0, 1, 0), sector(2, 0, -1, 0))) == []


def test_observation1_tilted():
    wide = rotation_from_parameter(F(1, 5))  # cos 12/13
    x = sector(0, 0, 5, 1, half=wide)
    y = sector(2, 0, -5, 1, half=wide)
    assert coupled(x, y)
    assert check_observation1(*labelled(x, y)) == []


def test_observation1_needs_couple():
    # Parallel bisectors fail the bound, but only a couple is examined.
    x = sector(0, 0, 1, 0)
    assert check_observation1(*labelled(x, sector(2, 0, 1, 0))) == []
    assert check_observation1(*labelled(x, x)) == [(free("s0"), free("s1"))]


def test_observation1_reports_only_the_failing_class():
    # Two couples with the same directions, whose bisectors are atan(1/5),
    # about 11.3 degrees, from antipodal.  The half angles of the first
    # (t = 1/40, about 2.9 degrees) sum to less than that, those of the
    # second (t = 1/10, about 11.4 degrees) to more.  No geometry makes
    # such a first couple (criterion 4), so the graph is written by hand.
    tight, loose = rotation_from_parameter(F(1, 40)), rotation_from_parameter(F(1, 10))
    objs = [
        sector(0, 0, 1, 0, half=tight),
        sector(2, 0, -5, 1, half=tight),
        sector(0, 5, 1, 0, half=loose),
        sector(2, 5, -5, 1, half=loose),
    ]
    x1, y1, x2, y2 = labels = [free(name) for name in ("x1", "y1", "x2", "y2")]
    inst = instance(zip(labels, objs))
    graph = digraph(labels, [(x1, y1), (y1, x1), (x2, y2), (y2, x2)])
    assert check_observation1(inst, graph) == [(x1, y1)]


def test_observation1_tests_each_unordered_class_once(monkeypatch):
    # The couples of the test above with tight half angles, the second
    # listing its two classes in the other order; the test is symmetric in
    # the pair, so one angle test decides both.
    calls = []

    def counted(*args):
        calls.append(args)
        return angle_at_most(*args)

    monkeypatch.setattr(realization, "angle_at_most", counted)
    tight = rotation_from_parameter(F(1, 40))
    objs = [
        sector(0, 0, 1, 0, half=tight),
        sector(2, 0, -5, 1, half=tight),
        sector(2, 5, -5, 1, half=tight),
        sector(0, 5, 1, 0, half=tight),
    ]
    x1, y1, y2, x2 = labels = [free(name) for name in ("x1", "y1", "y2", "x2")]
    inst = instance(zip(labels, objs))
    graph = digraph(labels, [(x1, y1), (y1, x1), (x2, y2), (y2, x2)])
    assert check_observation1(inst, graph) == [(x1, y1), (x2, y2)]
    assert len(calls) == 1


def test_perpendicular_narrow_sectors_never_couple():
    # contrapositive: bisectors at a right angle cannot form a couple
    for ax, ay in [(2, 0), (1, 1), (3, -1), (0, 2)]:
        x = sector(0, 0, 1, 0)
        y = Sector(vec(ax, ay), vec(0, 1), NARROW, F(100))
        assert not coupled(x, y)


# --- instance-level checks -------------------------------------------------


def test_is_equiangular():
    same = instance(
        [(free("a"), sector(0, 0, 1, 0)), (free("b"), sector(5, 5, 0, 1))]
    )
    mixed = instance(
        [
            (free("a"), sector(0, 0, 1, 0)),
            (free("b"), sector(5, 5, 0, 1, half=rotation_from_parameter(F(1, 5)))),
        ]
    )
    assert is_equiangular(same)
    assert not is_equiangular(mixed)
    assert is_equiangular(instance([]))


def test_equiangular_rejects_non_sectors():
    with pytest.raises(NonSectorObject):
        is_equiangular(instance([(free("s"), Segment(vec(0, 0), vec(1, 0)))]))


def test_every_side_check_rejects_a_non_sector_by_its_label():
    # The segment holds the apex of the sector, and the sector holds the
    # segment's point, so the two form a mutual couple.
    inst = instance(
        [(free("s"), Segment(vec(0, 0), vec(2, 0))), (free("t"), sector(1, 0, -1, 0))]
    )
    g = transmission_graph(inst)
    assert g.edges == {(free("s"), free("t")), (free("t"), free("s"))}
    checks = [
        lambda: is_equiangular(inst),
        lambda: is_wide_spread(inst, g),
        lambda: check_observation1(inst, g),
        lambda: check_ordering_gadget(inst, g, free("s"), [free("t")]),
    ]
    for check in checks:
        with pytest.raises(NonSectorObject, match="^s$"):
            check()


def wide_spread(inst):
    return is_wide_spread(inst, transmission_graph(inst))


def test_wide_spread_single_sector():
    assert wide_spread(instance([(free("a"), sector(0, 0, 1, 0))]))


def test_wide_spread_exempts_coupled_pairs():
    # every qualifying pair shares a couple partner, so spread is irrelevant
    a = sector(0, 0, 1, 0, rsq=F(100))
    b = sector(2, 0, -1, 0, rsq=F(100))
    d = sector(1, 0, -1, 0, rsq=F(100))  # couples with a
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    assert wide_spread(inst)


def test_wide_spread_fails_for_wide_parallel_pair():
    wide = rotation_from_parameter(F(1, 3))  # opening angle far past pi/4
    a = Sector(vec(0, 10), vec(0, -1), wide, F(200))
    b = Sector(vec(0, -10), vec(0, 1), wide, F(200))
    d = Sector(vec(0, 0), vec(1, 0), wide, F(1, 100))
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    assert not wide_spread(inst)


@pytest.mark.parametrize(
    "half", [rotation_from_parameter(F(9, 10)), Rotation(F(0), F(1))]
)
def test_wide_spread_fails_when_twice_the_opening_wraps_past_a_turn(half):
    # 2 * alpha is about 336 degrees, then 360 degrees: far past pi/2, though
    # quadrupling the half angle lands back near the identity rotation.
    a = Sector(vec(0, 10), vec(0, -1), half, F(200))
    b = Sector(vec(-10, 0), vec(1, 0), half, F(200))
    d = Sector(vec(0, 0), vec(1, 0), half, F(1, 100))
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    assert not wide_spread(inst)


def test_wide_spread_holds_for_perpendicular_pairs():
    # non-exempt qualifying pairs exist but their bisectors are far apart
    a = Sector(vec(0, 10), vec(0, -1), NARROW, F(200))
    b = Sector(vec(-10, 0), vec(1, 0), NARROW, F(200))
    d = Sector(vec(0, 0), vec(0, 1), NARROW, F(200))  # couples with a
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    assert wide_spread(inst)


@pytest.mark.parametrize("t, spread", [(F(1, 6), False), (F(1, 20), True)])
def test_wide_spread_decides_a_qualifying_pair_that_is_not_parallel(t, spread):
    # a and b contain the apex of d and share no couple partner; their
    # bisectors are 45 degrees apart.  At t = 1/6 twice the opening angle
    # is about 76 degrees, at t = 1/20 about 23 degrees.
    half = rotation_from_parameter(t)
    a = Sector(vec(0, 10), vec(0, -1), half, F(200))
    b = Sector(vec(-10, 10), vec(1, -1), half, F(300))
    d = Sector(vec(0, 0), vec(1, 0), half, F(1, 100))
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    graph = transmission_graph(inst)
    assert graph.edges == {(free("a"), free("d")), (free("b"), free("d"))}
    assert is_wide_spread(inst, graph) is spread


@pytest.mark.parametrize("couple_b_r, spread", [(True, True), (False, False)])
def test_wide_spread_tests_pairs_when_a_class_has_no_common_partner(couple_b_r, spread):
    """a, b and c share a direction and contain the apex of d.  Each two
    of them share a couple partner (p, q or r), but no partner is common
    to all three; without the couple b <-> r, b and c share none.  The
    graph is written by hand to fix the couples."""
    names = ("a", "b", "c", "d", "p", "q", "r")
    a, b, c, d, p, q, r = labels = [free(name) for name in names]
    objs = [sector(k, 0, 1, 0) for k in range(3)]
    objs += [sector(0, 5, 0, 1), *(sector(k, 9, -1, 0) for k in range(3))]
    couples = [(a, p), (a, q), (b, p), (c, q), (c, r)] + [(b, r)] * couple_b_r
    edges = [(a, d), (b, d), (c, d)] + [e for x, y in couples for e in ((x, y), (y, x))]
    inst = instance(zip(labels, objs))
    assert is_wide_spread(inst, digraph(labels, edges)) is spread


def _counting_acute_angle(monkeypatch):
    calls = []
    real = realization.acute_angle_at_least

    def counted(u, v, bound):
        calls.append((u, v))
        return real(u, v, bound)

    monkeypatch.setattr(realization, "acute_angle_at_least", counted)
    return calls


@pytest.mark.parametrize("t, spread", [(F(0), True), (F(1, 20), False)])
def test_wide_spread_puts_opposite_directions_in_one_line_class(t, spread, monkeypatch):
    """a and b point along -u and u, contain the apex of d and share no
    couple partner.  The acute angle between their undirected lines is 0,
    so the pair is wide spread only for rays (half angle 0).  Along u and
    -u there is one line class, so the angle test runs on the 3 pairs of
    two classes, not the 6 pairs of three directions."""
    half = rotation_from_parameter(t)
    a = Sector(vec(0, 10), vec(0, -1), half, F(200))
    b = Sector(vec(0, -10), vec(0, 1), half, F(200))
    d = Sector(vec(0, 0), vec(1, 0), half, F(1, 100))
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    graph = transmission_graph(inst)
    assert graph.edges == {(free("a"), free("d")), (free("b"), free("d"))}
    calls = _counting_acute_angle(monkeypatch)
    assert is_wide_spread(inst, graph) is spread
    assert len(calls) == 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_spread_tests_each_pair_of_line_classes_once(seed, monkeypatch):
    """An n=3 realization has 6 bisector directions on 3 lines, u_i and
    -u_i for each: 6 pairs of line classes, not 21 pairs of directions."""
    real = _realized(3, seed)
    calls = _counting_acute_angle(monkeypatch)
    assert is_wide_spread(real.instance, real.graph)
    assert len(calls) == 6


# --- ordering gadget -------------------------------------------------------


def gadget(*members):
    """The ordering gadget on a base sector and ``members``, in list order."""
    base = Sector(vec(0, 0), vec(1, 0), NARROW, F(10000))
    labels = [free(f"a{k}") for k in range(1, len(members) + 1)]
    inst = instance([(free("l"), base), *zip(labels, members)])
    return check_ordering_gadget(inst, transmission_graph(inst), free("l"), labels)


def test_gadget_orders_projections():
    a1 = Sector(vec(1, 0), vec(-1, 0), NARROW, F(10000))
    a2 = Sector(vec(2, F(1, 10)), vec(-1, 0), NARROW, F(10000))
    rep = gadget(a1, a2)
    assert rep.hypotheses_hold
    assert rep.order_ok and rep.passed
    assert rep.params == [1, 2]
    assert rep.ties == []


def test_gadget_reports_ties():
    a1 = Sector(vec(1, F(1, 20)), vec(-1, 0), NARROW, F(10000))
    a2 = Sector(vec(1, F(-1, 20)), vec(-1, 0), NARROW, F(10000))
    rep = gadget(a1, a2)
    assert rep.order_ok and rep.ties == [1]


def test_gadget_broken_hypotheses_prove_nothing():
    a1 = Sector(vec(2, 0), vec(-1, 0), NARROW, F(10000))
    a2 = Sector(vec(1, 0), vec(-1, 0), NARROW, F(1, 100))  # contains nothing
    rep = gadget(a1, a2)
    assert rep.hypothesis_failures == ["apex of l not in a2", "apex of a1 not in a2"]
    assert not rep.order_ok
    assert rep.passed  # the implication is vacuously true


def test_gadget_empty_list():
    rep = gadget()
    assert rep.passed and rep.params == []


# --- segment realization ---------------------------------------------------


def test_realize_segments_matches_reduction(three_lines):
    real = realize_segments(three_lines)
    expected = reduce_segments(extract_description(three_lines))
    assert graph_diff(real.graph, expected).empty
    assert len(real.instance) == expected.vertex_count == 12


def test_realize_segments_a_objects_are_sinks(three_lines):
    real = realize_segments(three_lines)
    for v in real.graph.vertices:
        if v.kind == "A":
            assert not {b for a, b in real.graph.edges if a == v}


def test_realize_segments_rejects_nonsimple(concurrent_lines):
    with pytest.raises(NonSimpleArrangement):
        realize_segments(concurrent_lines)


def test_realize_segments_scale_equivariant(three_lines):
    scaled = LineArrangement(
        tuple(Line(l.a, l.b, 7 * l.c) for l in three_lines.lines)
    )
    g1 = realize_segments(three_lines).graph
    g2 = realize_segments(scaled).graph
    assert g1 == g2


def _pick_tilt_by_fractions(arr):
    """The tilt scan with every direction rotated in ``Fraction``s."""
    dirs = [ln.rightward_direction() for ln in arr.lines]
    for k in range(3, 3 + 2 * arr.n * arr.n + 4):
        rot = rotation_from_parameter(Fraction(1, k))
        if all(rot.apply(u).cross(v) != 0 for u in dirs for v in dirs):
            return rot
    raise AssertionError("no tilt found")


def _a_segment_ends_by_fractions(arr, tilt):
    """Each A-segment's far end, from a ``Fraction`` ray-line parameter
    per line: halfway to the nearest line hit, or one tilted step."""
    ends = {}
    for (i, k), apex in intersections_by_fractions(arr).items():
        d = tilt.apply(arr.line(i).rightward_direction())
        params = []
        for ln in arr.lines:
            den = ln.a * d.x + ln.b * d.y
            if den != 0:
                t = (ln.c - ln.a * apex.x - ln.b * apex.y) / den
                if t > 0:
                    params.append(t)
        length = min(params) / 2 if params else Fraction(1)
        ends[A(i, k)] = apex + d.scaled(length)
    return ends


line_scales = st.fractions(
    min_value=-(10**3), max_value=10**3, max_denominator=10**9
).filter(bool)


@st.composite
def rescaled_simple_arrangements(draw):
    """A simple arrangement of 2 to 7 lines, each line's (a, b, c) times a
    nonzero rational, so b may be negative."""
    n = draw(st.integers(2, 7))
    arr = random_simple_arrangement(RandomSpec(n, draw(st.integers(0, 10**6))))
    scales = draw(st.lists(line_scales, min_size=n, max_size=n))
    return LineArrangement(
        tuple(Line(k * ln.a, k * ln.b, k * ln.c) for ln, k in zip(arr.lines, scales))
    )


@settings(max_examples=80, deadline=None)
@given(rescaled_simple_arrangements())
def test_tilt_and_a_segment_ends_match_the_fraction_reference(arr):
    real = realize_segments(arr)
    assert real.tilt == _pick_tilt_by_fractions(arr)
    ends = {label: seg.q for label, seg in real.instance.entries if label.kind == "A"}
    assert ends == _a_segment_ends_by_fractions(arr, real.tilt)


def test_a_segment_at_n2_is_one_tilted_step():
    # The ray from the only crossing meets no other line, so its length is 1:
    # the tilt (4/5, 3/5) turns the direction (1, 0) of y = 0 to (4/5, 3/5).
    real = realize_segments(two_lines())
    assert real.tilt == rotation_from_parameter(F(1, 3))
    a_segment = dict(real.instance.entries)[A(1, 2)]
    assert a_segment == Segment(vec(0, 0), vec(F(4, 5), F(3, 5)))


def _a_segment_from_origin(line, tilted, lines):
    """The A-segment from the origin, the crossing at x = 0/1 of ``line``,
    along the tilted direction (Q, dx, dy), with ``line`` among the lines."""
    [(label, segment)] = realization._a_segments(1, line, 1, [(0, 2)], tilted, [line] + lines)
    assert label == A(1, 2) and segment.p == vec(0, 0)
    return segment.q


def test_a_segment_skips_backward_lines_and_stops_halfway_to_the_nearer_hit():
    # The origin lies on x + y = 0, also written with b < 0, which is
    # negated before the apex is placed.  Its own line is no hit.
    along_x = (1, 1, 0)
    for line in [(1, 1, 0), (-1, -1, 0)]:
        # x = -4 is behind the ray (written with a < 0 too, so its row is
        # negated): one step along (1, 0).
        behind = [(1, 0, -4), (-1, 0, 4)]
        assert _a_segment_from_origin(line, along_x, behind) == vec(1, 0)
        # x = 4 and x = 6 (as -x = -6) are hit at 4 and 6: halfway to the
        # nearer.
        ahead = behind + [(-1, 0, -6), (1, 0, 4)]
        assert _a_segment_from_origin(line, along_x, ahead) == vec(2, 0)
        # The direction (2, 1)/5, given with Q = 5, meets y = 1 at (2, 1).
        assert _a_segment_from_origin(line, (5, 2, 1), [(0, 1, 1)]) == vec(1, F(1, 2))
        # It meets y = -1 behind the apex only, so the end is one step of d.
        end = _a_segment_from_origin(line, (5, 2, 1), [(0, 1, -1)])
        assert end == vec(F(2, 5), F(1, 5))


# --- sector realization ----------------------------------------------------


def two_lines():
    from transgraph.geometry import line_from_slope_intercept

    return LineArrangement(
        (
            line_from_slope_intercept(F(0), F(0)),
            line_from_slope_intercept(F(1), F(0)),
        )
    )


def test_realize_sectors_matches_reduction():
    arr = two_lines()
    real = realize_sectors(arr)
    expected = reduce_sectors(extract_description(arr))
    assert graph_diff(real.graph, expected).empty
    assert len(real.instance) == 42


def test_realize_sectors_instance_is_equiangular_and_spread():
    real = realize_sectors(two_lines())
    assert is_equiangular(real.instance)
    assert is_wide_spread(real.instance, real.graph)


def test_realize_sectors_parameters_positive():
    real = realize_sectors(two_lines())
    assert real.tau > 0 and real.delta > 0 and real.epsilon > 0
    assert real.alpha_half.s > 0
    # opening angle regime: the full opening stays within a quarter turn
    doubled = real.alpha_half.doubled()
    assert doubled.c > 0 and doubled.s > 0


def test_failed_side_check_is_named_in_the_search_detail(monkeypatch):
    # The instance of two_lines() passes the graph diff, so only the
    # patched checker can reject it.
    monkeypatch.setattr(realization, "is_equiangular", lambda inst: False)
    with pytest.raises(ParameterSearchExhausted) as exc:
        realize_sectors(two_lines())
    assert exc.value.detail == "equiangular"


def test_realize_sectors_rejects_nonsimple(concurrent_lines):
    with pytest.raises(NonSimpleArrangement):
        realize_sectors(concurrent_lines)


def test_realize_sectors_three_lines(three_lines):
    real = realize_sectors(three_lines)
    expected = reduce_sectors(extract_description(three_lines))
    assert graph_diff(real.graph, expected).empty


def _shifted_up(ln, dy):
    """The line translated vertically by ``dy``."""
    return Line(ln.a, ln.b, ln.c + ln.b * dy)


def test_band_apexes_sit_at_the_shifted_line_crossings():
    """Every SA apex is delta before a crossing of two shifted lines, and
    every SB apex is halfway to the next crossing or the slab end, with
    ``line_intersection`` of the shifted lines as the reference."""
    arr = random_simple_arrangement(RandomSpec(n=5, seed=1))
    real = realize_sectors(arr)
    objs = dict(real.instance.entries)
    offsets = {1: real.tau, 2: F(0), 3: -real.tau}
    checked = 0
    for i in range(1, arr.n + 1):
        for m in (1, 2, 3):
            band = _shifted_up(arr.line(i), offsets[m])
            u = objs[SC(i, m)].direction
            assert u.x > 0  # crossings are met in x order along the bisector
            hits = sorted(
                (
                    (line_intersection(band, _shifted_up(arr.line(k), offsets[mp])), k, mp)
                    for k in range(1, arr.n + 1)
                    if k != i
                    for mp in (1, 2, 3)
                ),
                key=lambda hit: hit[0].x,
            )
            right = real.slab.x_right
            ends = [h[0] for h in hits[1:]] + [Vec2(right, band.y_at(right))]
            for (pt, k, mp), nxt in zip(hits, ends):
                assert objs[SA(i, m, k, mp)].apex + u.scaled(real.delta) == pt
                mid = Vec2((pt.x + nxt.x) / 2, (pt.y + nxt.y) / 2)
                assert objs[SB(i, m, k, mp)].apex == mid
                checked += 1
    assert checked == 9 * arr.n * (arr.n - 1)


def _build_sector_instance_by_fractions(lines, crossings, slab, tau, t, delta, eps):
    """The sector builder as it was before it cleared each line to
    integers: every row parameter, gap, apex and squared radius in
    ``Fraction``s, with fresh labels.  The reference for
    ``realization._build_sector_instance``."""
    half = rotation_from_parameter(t)
    width = slab.width
    offsets = (tau, F(0), -tau)
    slopes = [ln.slope() for ln in lines]
    rows = {(i, m): [] for i in range(1, len(lines) + 1) for m in (1, 2, 3)}
    for pair, pt in crossings.items():
        for i, k in (pair, pair[::-1]):
            b = lines[i - 1].b
            at = (pt.x - slab.x_left) / b
            step = tau / ((slopes[i - 1] - slopes[k - 1]) * b)
            for m in (1, 2, 3):
                rows[(i, m)] += [(at + (m - mp) * step, k, mp) for mp in (1, 2, 3)]
    gaps = []
    for (i, _), row in rows.items():
        row.sort()
        params = [0] + [p for p, _, _ in row] + [width / lines[i - 1].b]
        gaps += [q - p for p, q in zip(params, params[1:])]
    min_gap = min(gaps)
    if min_gap <= 0:
        return None
    delta = min(delta, min_gap / 4)
    cones, bands = [], []
    for i, ln in enumerate(lines, start=1):
        u = Vec2(ln.b, -ln.a)
        usq = u.norm_sq()
        grow = usq * (1 + eps)
        end = width / ln.b
        left = Vec2(slab.x_left, ln.y_at(slab.x_left))
        for m, o in enumerate(offsets, start=1):
            apex_c = Vec2(left.x, left.y + o)
            cones.append((SC(i, m), Sector(apex_c, u, half, end * end * usq)))
            row = rows[(i, m)]
            for pos, (param, k, mp) in enumerate(row):
                nxt = row[pos + 1][0] if pos + 1 < len(row) else end
                for label, at in (
                    (SA(i, m, k, mp), param - delta),
                    (SB(i, m, k, mp), (param + nxt) / 2),
                ):
                    apex = apex_c + u.scaled(at)
                    bands.append((label, Sector(apex, -u, half, at * at * grow)))
    return instance(cones + bands), half, delta


SEARCH_INPUTS = [(n, seed) for n in range(2, 8) for seed in (0, 1, 2)]


def _one_round(n, seed):
    """The realization of a seeded input with its normalized lines, crossing
    table and initial parameters (tau, t, delta, epsilon)."""
    real = _realized(n, seed)
    arr = random_simple_arrangement(RandomSpec(n=n, seed=seed))
    lines = realization._normalized_lines(arr)
    table = arr.crossings_by_line()
    return real, arr, lines, table, realization._initial_parameters(lines, table, real.slab)


@pytest.mark.parametrize("n, seed", SEARCH_INPUTS)
def test_integer_build_matches_the_fraction_reference(n, seed):
    """The realization's round builds the instance the ``Fraction`` builder
    builds, and so do a band offset large enough to push shifted crossings
    out of the slab and an apex offset large enough to be clamped to a
    quarter of the smallest gap."""
    # The clamp never binds and no crossing leaves the slab in the round
    # these inputs realize; the last two calls reach both branches.
    real, arr, lines, table, (tau0, t0, delta0, eps0) = _one_round(n, seed)
    crossings = intersections_by_fractions(arr)

    def both(*params):
        tau, t, delta, eps = params
        half = rotation_from_parameter(t)
        layout = realization._sector_layout(lines, table, real.slab, tau, delta)
        built = layout and (
            realization._build_sector_instance(lines, real.slab, layout[0], tau, half, layout[1], eps),
            half,
            layout[1],
        )
        reference = _build_sector_instance_by_fractions(lines, crossings, real.slab, *params)
        assert built == reference
        return built

    built = both(tau0, t0, real.delta, eps0)
    assert built[0] == real.instance and built[2] == real.delta
    assert both(tau0 * 10**6, t0, delta0, eps0) is None
    clamped = both(tau0, t0, F(1), eps0)
    assert clamped[2] < 1


def _first_cone_miss(inst):
    """The first (SB(i, m, k, mp), SA(k, mp, i, m)) in instance order whose
    SB cone, radius aside, misses the SA apex, decided in ``Fraction``s."""
    objs = dict(inst.entries)
    for label, sb in inst.entries:
        if label.kind == "SB":
            i, m, k, mp = label.indices
            w = objs[SA(k, mp, i, m)].apex - sb.apex
            if not angle_at_most(sb.direction, w, sb.half_angle):
                return label, SA(k, mp, i, m)
    return None


@pytest.mark.parametrize("n, seed", SEARCH_INPUTS)
def test_the_solved_delta_is_tight_against_the_cone_reference(n, seed):
    """At the solved apex offset no SB cone misses its SA apex, and where
    the clamped offset was halved, some SB cone misses at twice the solved
    offset, which ``Sector.contains`` confirms for an edge of the target.
    So the offset is the largest of the halvings that can realize every
    SB -> SA edge.  Besides the realized round: wide cones and an offset
    clamped to a quarter gap, where the dot product's delta term and the
    sine side of the test count too."""
    real, _, lines, table, (tau0, t0, delta0, eps0) = _one_round(n, seed)
    target = reduce_sectors(real.description)
    for t, offset in product((t0, F(1, 4), F(3, 4)), (delta0, F(1))):
        half = rotation_from_parameter(t)
        bands, clamped = realization._sector_layout(lines, table, real.slab, tau0, offset)
        delta = realization._apex_offset(lines, bands, half, clamped)
        if (t, offset) == (t0, delta0):
            assert delta == real.delta
        halvings = clamped / delta
        assert halvings.denominator == 1 and halvings.numerator.bit_count() == 1

        def build(delta):
            return realization._build_sector_instance(
                lines, real.slab, bands, tau0, half, delta, eps0
            )

        assert _first_cone_miss(build(delta)) is None
        if delta < clamped:
            inst = build(2 * delta)
            sb, sa = _first_cone_miss(inst)
            objs = dict(inst.entries)
            assert (sb, sa) in target.edges and not objs[sb].contains(objs[sa].apex)


@pytest.mark.parametrize("n, seed", SEARCH_INPUTS)
def test_a_screened_round_misses_an_edge_of_the_target(n, seed):
    """A round built at twice the solved apex offset, an offset that the
    cone bound rules out, fails the full verification: its transmission
    graph misses SB(i, m, k, mp) -> SA(k, mp, i, m) edges of the target, the
    first pair ``_first_cone_miss`` names among them, and misses no other
    kind of edge.  Checked at the realized half angle, for the initial apex
    offset and one clamped to a quarter gap, wherever the halving ran."""
    real, _, lines, table, (tau0, t0, delta0, eps0) = _one_round(n, seed)
    target = reduce_sectors(real.description)
    half = real.alpha_half
    doubled = 0
    for offset in (delta0, F(1)):
        bands, clamped = realization._sector_layout(lines, table, real.slab, tau0, offset)
        delta = realization._apex_offset(lines, bands, half, clamped)
        if delta == clamped:
            continue
        inst = realization._build_sector_instance(lines, real.slab, bands, tau0, half, 2 * delta, eps0)
        missing = graph_diff(target, transmission_graph(inst)).missing_edges
        assert _first_cone_miss(inst) in missing
        for sb, sa in missing:
            i, m, k, mp = sb.indices
            assert sb.kind == "SB" and sa == SA(k, mp, i, m)
        doubled += 1
    assert doubled


def test_a_screened_round_names_its_missed_pair_in_the_search_detail(monkeypatch):
    """With the solved apex offset doubled, the one round of ``gen --n 3
    --seed 0`` misses the SB -> SA edges of the crossing of lines 1 and 3,
    and the search detail names each missed pair."""
    solve = realization._apex_offset
    monkeypatch.setattr(realization, "_apex_offset", lambda *args: 2 * solve(*args))
    with pytest.raises(ParameterSearchExhausted) as exc:
        realize_sectors(random_simple_arrangement(RandomSpec(n=3, seed=0)))
    pairs = (f"{SB(3, m, 1, mp)}->{SA(1, mp, 3, m)}" for m in (1, 2, 3) for mp in (2, 3))
    assert exc.value.detail == "missing edges: " + ", ".join(pairs)


def _counting_stages(monkeypatch, names):
    """Count the calls of each named ``realization`` global."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in names:
        monkeypatch.setattr(realization, name, counting(name, getattr(realization, name)))
    return calls


STAGES = ("rotation_from_parameter", "_sector_layout", "_build_sector_instance", "transmission_graph")


@pytest.mark.parametrize("n", [3, 5])
def test_every_round_makes_one_rotation_and_only_built_rounds_a_graph(n, monkeypatch):
    """A benchmark trace counts one search round per
    ``rotation_from_parameter`` call inside ``realize_sectors`` and one
    verified round per ``transmission_graph`` call.  A round that fails its
    verification is the only round too: no stage runs again before the
    search is reported exhausted."""
    calls = _counting_stages(monkeypatch, STAGES)
    monkeypatch.setattr(realization, "is_equiangular", lambda inst: False)
    with pytest.raises(ParameterSearchExhausted):
        realize_sectors(random_simple_arrangement(RandomSpec(n=n, seed=1)))
    assert calls == dict.fromkeys(STAGES, 1)


@pytest.mark.parametrize("n, seed", SEARCH_INPUTS)
def test_realize_sectors_runs_each_stage_once(n, seed, monkeypatch):
    """The parameters are solved in one pass from round 0's tau, half angle
    and epsilon: a benchmark trace counts one search round per
    ``rotation_from_parameter`` call inside ``realize_sectors`` and one
    verified round per ``transmission_graph`` call, and each runs once."""
    _, arr, _, _, (tau0, t0, _, eps0) = _one_round(n, seed)
    calls = _counting_stages(monkeypatch, STAGES)
    real = realize_sectors(arr)
    assert calls == dict.fromkeys(STAGES, 1)
    assert (real.tau, real.alpha_half, real.epsilon) == (tau0, rotation_from_parameter(t0), eps0)


@pytest.mark.parametrize("realize, n", [(realize_segments, 8), (realize_sectors, 3)])
def test_a_realization_solves_the_crossings_at_most_three_times(realize, n, monkeypatch):
    """``crossings_by_line`` is the package's one crossing solve: the
    realizer builds its table once, and ``is_simple`` and
    ``extract_description`` build one each."""
    arr = random_simple_arrangement(RandomSpec(n=n, seed=1))
    solve = LineArrangement.crossings_by_line
    solves = []

    def counting_solve(arr):
        solves.append(arr)
        return solve(arr)

    monkeypatch.setattr(LineArrangement, "crossings_by_line", counting_solve)
    realize(arr)
    assert 1 <= len(solves) <= 3


def _counting_cleared(monkeypatch):
    """Record the arguments of every ``geometry.cleared`` call, wherever the
    package calls it from."""
    real = geometry.cleared
    calls = []

    def counted(*values):
        calls.append(values)
        return real(*values)

    for module in (geometry, arrangement, realization, transmission):
        if getattr(module, "cleared", None) is real:
            monkeypatch.setattr(module, "cleared", counted)
    return calls


@pytest.mark.parametrize("n", [3, 5])
def test_a_sector_realization_clears_per_line_not_per_sector(n, monkeypatch):
    """A sector realization and its side pass call ``cleared`` at most
    6n + 2 times: per line, the normalized line (if negated), the layout,
    the apex-offset products, the build's band origins, and the build's
    bisector u and its negation, each cleared once by the first sector
    that validates on it; once for the shared half angle; and once for the
    instance's scaled view, which the kernel and the side checks share.
    The arrangement's own lines were cleared when built, and the crossing
    tables read them.  Clearing per sector would take more calls than the
    instance has sectors, 9n + 18n(n - 1)."""
    arr = random_simple_arrangement(RandomSpec(n=n, seed=1))
    calls = _counting_cleared(monkeypatch)
    real = realize_sectors(arr)
    realization._sector_side_conditions(real.instance, real.graph, real.description)
    assert len(calls) <= 6 * n + 2 < len(real.instance)


def test_a_segment_realization_clears_no_line_again(monkeypatch):
    """Each line's (a, b, c) is cleared once, when the line is built; the
    crossing tables and the segment placement read ``Line.integers``."""
    arr = random_simple_arrangement(RandomSpec(n=8, seed=1))
    calls = _counting_cleared(monkeypatch)
    realize_segments(arr)
    assert calls
    assert not {(ln.a, ln.b, ln.c) for ln in arr.lines} & set(calls)


def test_a_segment_realization_clears_per_line_not_per_apex(monkeypatch):
    """The seed-1 n=8 segment realization calls ``cleared`` at most 2n + 1
    times: each line's rightward direction, whose clearing factor the tilted
    direction keeps, and each line's slab ends, once per line, and the
    instance's scaled view once.  The A apexes are placed from the crossing
    table's integers and the tilted directions from the tilt scan's, so
    clearing either again would take n(n - 1)/2 or n more calls."""
    n = 8
    arr = random_simple_arrangement(RandomSpec(n=n, seed=1))
    calls = _counting_cleared(monkeypatch)
    realize_segments(arr)
    assert len(calls) <= 2 * n + 1


def test_realized_sectors_carry_the_target_labels(monkeypatch):
    """Every label of the realized instance is the target graph's own
    object, so the accepted round's ``graph_diff`` matches every vertex
    and edge by identity and calls ``Label.__eq__`` not once."""
    targets, diffs, eq_calls = [], [], []
    reduce, label_eq = realization.reduce_sectors, Label.__eq__

    def recording_reduce(desc):
        targets.append(reduce(desc))
        return targets[-1]

    def counting_eq(self, other):
        eq_calls.append(1)
        return label_eq(self, other)

    def counting_diff(g, h):
        before = len(eq_calls)
        report = graph_diff(g, h)
        diffs.append((report.empty, len(eq_calls) - before))
        return report

    monkeypatch.setattr(realization, "reduce_sectors", recording_reduce)
    monkeypatch.setattr(realization, "graph_diff", counting_diff)
    monkeypatch.setattr(Label, "__eq__", counting_eq)
    real = realize_sectors(random_simple_arrangement(RandomSpec(n=3, seed=1)))
    (target,) = targets
    assert diffs[-1] == (True, 0)
    by_value = {v: v for v in target.vertices}
    assert all(label is by_value[label] for label in real.instance.labels())


# --- randomized couple soundness ------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=F(1, 50), max_value=F(1, 6), max_denominator=50),
    st.fractions(min_value=1, max_value=10, max_denominator=5),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
)
def test_random_couples_satisfy_observation1(t, dist, skew):
    half = rotation_from_parameter(t)
    x = Sector(vec(0, 0), vec(1, 0), half, F(400))
    y = Sector(vec(dist, skew), vec(-dist, -skew), half, F(400))
    inst, graph = labelled(x, y)
    if len(graph.edges) == 2:
        assert check_observation1(inst, graph) == []


# --- side checks against the geometric sweep ------------------------------


def _geometric_side_conditions(inst, graph, desc):
    """The five side checks as they were computed before they read
    containment from the graph: observation 1 and the gadget hypotheses
    through ``Sector.contains``, wide spread over pairs of ``Fraction``
    directions.  The reference for ``realization._sector_side_conditions``."""
    objs = dict(inst.entries)
    some = next(iter(objs.values()))
    edge_set = set(graph.edges)

    def observation1(x, y):
        if not (x.contains(y.apex) and y.contains(x.apex)):
            raise ValueError("not a mutual couple")
        bound = x.half_angle.compose(y.half_angle)
        return angle_at_most(x.direction, -y.direction, bound)

    couple_failures = sorted(
        f"({u}, {v})"
        for u, v in edge_set
        if (v, u) in edge_set
        and u.sort_key() < v.sort_key()
        and not observation1(objs[u], objs[v])
    )
    gadget_failures = []
    for i in range(1, desc.n + 1):
        expected = []
        for ok in desc.flat_order(i):
            for mp in (1, 2, 3) if ok > i else (3, 2, 1):
                expected.append((ok, mp))
        for m in (1, 2, 3):
            l = objs[SC(i, m)]
            children = []
            for ok, mp in expected:
                children.append(objs[SA(i, m, ok, mp)])
                children.append(objs[SB(i, m, ok, mp)])
            hypotheses = all(l.contains(s.apex) and s.contains(l.apex) for s in children)
            hypotheses &= all(
                sj.contains(children[i].apex)
                for j, sj in enumerate(children)
                for i in range(j)
            )
            params = [project_param(l.apex, l.direction, s.apex) for s in children]
            if not hypotheses:
                gadget_failures.append(f"hypotheses fail at {SC(i, m)}")
            elif any(q <= p for p, q in zip(params, params[1:])):
                gadget_failures.append(f"order fails at {SC(i, m)}")

    sectors = inst.objects()
    index = {label: i for i, label in enumerate(inst.labels())}
    containers = [{d} for d in range(len(sectors))]
    couples = [{d} for d in range(len(sectors))]
    for u, v in edge_set:
        containers[index[v]].add(index[u])
        if (v, u) in edge_set:
            couples[index[u]].add(index[v])
    qualifying = {pair for inside in containers for pair in combinations(sorted(inside), 2)}
    directions = {
        (sectors[a].direction, sectors[b].direction)
        for a, b in qualifying
        if not couples[a] & couples[b]
    }
    largest = min(sectors, key=lambda s: s.half_angle.c)
    two_alpha = largest.half_angle.doubled().doubled()
    wide = not directions or (
        largest.opening_at_most_quarter_pi()
        and all(acute_angle_at_least(u, v, two_alpha) for u, v in directions)
    )
    return (
        ("equiangular", is_equiangular(inst), ""),
        ("alpha at most pi/4", some.opening_at_most_quarter_pi(), ""),
        ("wide spread", wide, ""),
        ("observation-1 sweep", not couple_failures, ", ".join(couple_failures)),
        ("ordering gadget sweep", not gadget_failures, ", ".join(gadget_failures)),
    )


@lru_cache(maxsize=None)
def _realized(n, seed):
    return realize_sectors(random_simple_arrangement(RandomSpec(n=n, seed=seed)))


SIDE_CHECK_INPUTS = [(n, seed) for n in (2, 3, 4) for seed in (0, 1, 2)]


@pytest.mark.parametrize("n, seed", SIDE_CHECK_INPUTS)
def test_side_checks_match_the_geometric_sweep(n, seed):
    real = _realized(n, seed)
    assert real.checks == _geometric_side_conditions(
        real.instance, real.graph, real.description
    )


@pytest.mark.parametrize("n", [3, 5])
def test_the_side_pass_hashes_no_fraction_and_calls_no_label_method(n):
    """The side checks number their classes by integer keys and key their
    sets and dicts by interned labels: on a realization the pass hashes
    not one ``Fraction`` and calls no ``Label`` method but the constructor
    that builds the gadget members."""
    real = _realized(n, 1)
    watched = {Fraction.__hash__.__code__: "Fraction.__hash__"}
    watched.update(
        (fn.__code__, f"Label.{name}")
        for name, fn in vars(Label).items()
        if name != "__new__" and hasattr(fn, "__code__")
    )
    assert "Label.__lt__" in watched.values() and "Label.__str__" in watched.values()
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        checks = realization._sector_side_conditions(real.instance, real.graph, real.description)
    finally:
        sys.setprofile(None)
    assert checks == real.checks
    assert not calls


def _unshared(inst):
    """The instance rebuilt with a fresh ``Vec2`` and ``Rotation`` for every
    point, direction and half angle, so no cached integers are shared."""
    return instance(
        (
            label,
            Sector(
                Vec2(s.apex.x, s.apex.y),
                Vec2(s.direction.x, s.direction.y),
                Rotation(s.half_angle.c, s.half_angle.s),
                s.radius_sq,
            ),
        )
        for label, s in inst.entries
    )


@pytest.mark.parametrize("n, seed", [(3, 1), (4, 2)])
def test_unshared_values_give_the_same_graph_and_side_checks(n, seed):
    real = _realized(n, seed)
    copy = _unshared(real.instance)
    sectors = copy.objects()
    assert len({id(s.direction) for s in sectors}) == len(sectors)
    assert len({id(s.half_angle) for s in sectors}) == len(sectors)
    graph = transmission_graph(copy)
    assert graph == real.graph
    assert realization._sector_side_conditions(copy, graph, real.description) == real.checks


def _without(graph, edge):
    return digraph(graph.vertices, graph.edges - {edge})


def _gadget_couple(n):
    """A base and one member of its gadget; on a realized instance every
    member couples with its base."""
    return SC(n, 2), SA(n, 2, 1, 3)


@pytest.mark.parametrize("n, seed", SIDE_CHECK_INPUTS)
def test_a_dropped_base_edge_breaks_the_gadget_hypotheses(n, seed):
    real = _realized(n, seed)
    base, member = _gadget_couple(n)
    graph = _without(real.graph, (base, member))
    checks = realization._sector_side_conditions(real.instance, graph, real.description)
    geometric = _geometric_side_conditions(real.instance, graph, real.description)
    assert checks[:4] == geometric[:4]
    # the geometric sweep still finds the apex inside the base sector
    assert geometric[4] == ("ordering gadget sweep", True, "")
    assert checks[4] == ("ordering gadget sweep", False, f"hypotheses fail at {base}")


@pytest.mark.parametrize(
    "tail, head",
    [(SB(3, 2, 2, 1), SA(3, 2, 2, 2)), (SB(3, 2, 2, 3), SA(3, 2, 2, 3))],
    ids=["across parts", "within a part"],
)
def test_a_dropped_order_edge_is_the_one_gadget_hypothesis_failure(tail, head):
    real = _realized(3, 1)
    members = [make(3, 2, k, mp) for k, mp in sector_order(real.description, 3) for make in (SA, SB)]
    base = SC(3, 2)
    assert check_ordering_gadget(real.instance, real.graph, base, members).hypotheses_hold
    report = check_ordering_gadget(real.instance, _without(real.graph, (tail, head)), base, members)
    assert report.hypothesis_failures == [f"apex of {head} not in {tail}"]
    assert report.order_ok and report.passed


@pytest.mark.parametrize("n, seed", SIDE_CHECK_INPUTS)
def test_a_dropped_couple_edge_leaves_the_observation1_sweep(n, seed, monkeypatch):
    real = _realized(n, seed)
    base, member = _gadget_couple(n)
    pair = f"({base}, {member})"
    # With the angle bound failing everywhere, the sweep's detail lists
    # every pair it examined.
    monkeypatch.setattr(realization, "angle_at_most", lambda u, v, bound: False)

    def checks(graph):
        return realization._sector_side_conditions(real.instance, graph, real.description)

    before = re.findall(r"\([^)]*\)", checks(real.graph)[3][2])
    assert pair in before
    after = checks(_without(real.graph, (member, base)))
    assert re.findall(r"\([^)]*\)", after[3][2]) == [p for p in before if p != pair]
    assert after[4] == ("ordering gadget sweep", False, f"hypotheses fail at {base}")
