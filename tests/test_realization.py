from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transgraph import realization
from transgraph.arrangement import LineArrangement, extract_description
from transgraph.geometry import (
    Line,
    Rotation,
    Sector,
    Segment,
    rotation_from_parameter,
    vec,
)
from transgraph.graphs import free, graph_diff
from transgraph.realization import (
    NonSectorObject,
    NonSimpleArrangement,
    NotAMutualCouple,
    ParameterSearchExhausted,
    PreconditionViolated,
    check_observation1,
    check_observation2,
    check_ordering_gadget,
    is_equiangular,
    is_mutual_couple,
    is_wide_spread,
    realize_sectors,
    realize_segments,
)
from transgraph.reductions import reduce_sectors, reduce_segments
from transgraph.transmission import instance

F = Fraction
NARROW = rotation_from_parameter(F(1, 10))


def sector(ax, ay, dx, dy, half=NARROW, rsq=F(9)):
    return Sector(vec(ax, ay), vec(dx, dy), half, rsq)


# --- mutual couples --------------------------------------------------------


def test_mutual_couple_head_on():
    x = sector(0, 0, 1, 0)
    y = sector(2, 0, -1, 0)
    assert is_mutual_couple(x, y)
    assert is_mutual_couple(y, x)


def test_couple_fails_when_radius_short():
    x = sector(0, 0, 1, 0, rsq=F(1))
    y = sector(2, 0, -1, 0)
    assert not is_mutual_couple(x, y)


def test_couple_fails_when_facing_away():
    x = sector(0, 0, 1, 0)
    y = sector(2, 0, 1, 0)  # same direction: never sees x's apex
    assert not is_mutual_couple(x, y)


def test_couple_with_itself():
    x = sector(0, 0, 1, 0)
    assert is_mutual_couple(x, x)


# --- bisectors of couples are near-antipodal -------------------------------


def test_observation1_head_on():
    assert check_observation1(sector(0, 0, 1, 0), sector(2, 0, -1, 0))


def test_observation1_tilted():
    wide = rotation_from_parameter(F(1, 5))  # cos 12/13
    x = sector(0, 0, 5, 1, half=wide)
    y = sector(2, 0, -5, 1, half=wide)
    assert is_mutual_couple(x, y)
    assert check_observation1(x, y)


def test_observation1_needs_couple():
    with pytest.raises(NotAMutualCouple):
        check_observation1(sector(0, 0, 1, 0), sector(50, 0, -1, 0))


def test_perpendicular_narrow_sectors_never_couple():
    # contrapositive: bisectors at a right angle cannot form a couple
    for ax, ay in [(2, 0), (1, 1), (3, -1), (0, 2)]:
        x = sector(0, 0, 1, 0)
        y = Sector(vec(ax, ay), vec(0, 1), NARROW, F(100))
        assert not (is_mutual_couple(x, y) and check_observation1(x, y))


# --- outer rays stay away from a far bisector ------------------------------


def test_observation2_holds_at_boundary():
    x = sector(0, 0, 1, 0)
    y = sector(10, 10, 3, 4)
    beta = Rotation(F(3, 5), F(4, 5))
    assert check_observation2(x, y, beta)


def test_observation2_rejects_obtuse_beta():
    with pytest.raises(PreconditionViolated):
        check_observation2(
            sector(0, 0, 1, 0), sector(1, 1, 0, 1), Rotation(F(-3, 5), F(4, 5))
        )


def test_observation2_rejects_small_beta():
    wide = rotation_from_parameter(F(1, 2))  # half angle larger than beta
    with pytest.raises(PreconditionViolated):
        check_observation2(
            sector(0, 0, 1, 0, half=wide),
            sector(1, 1, 0, 1, half=wide),
            rotation_from_parameter(F(1, 10)),
        )


def test_observation2_rejects_close_bisectors():
    beta = Rotation(F(3, 5), F(4, 5))
    with pytest.raises(PreconditionViolated):
        check_observation2(sector(0, 0, 1, 0), sector(5, 5, 1, 0), beta)


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


def test_wide_spread_single_sector():
    assert is_wide_spread(instance([(free("a"), sector(0, 0, 1, 0))]))


def test_wide_spread_exempts_coupled_pairs():
    # every qualifying pair shares a couple partner, so spread is irrelevant
    a = sector(0, 0, 1, 0, rsq=F(100))
    b = sector(2, 0, -1, 0, rsq=F(100))
    d = sector(1, 0, -1, 0, rsq=F(100))  # couples with a
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    assert is_wide_spread(inst)


def test_wide_spread_fails_for_wide_parallel_pair():
    wide = rotation_from_parameter(F(1, 3))  # opening angle far past pi/4
    a = Sector(vec(0, 10), vec(0, -1), wide, F(200))
    b = Sector(vec(0, -10), vec(0, 1), wide, F(200))
    d = Sector(vec(0, 0), vec(1, 0), wide, F(1, 100))
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    assert not is_wide_spread(inst)


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
    assert not is_wide_spread(inst)


def test_wide_spread_holds_for_perpendicular_pairs():
    # non-exempt qualifying pairs exist but their bisectors are far apart
    a = Sector(vec(0, 10), vec(0, -1), NARROW, F(200))
    b = Sector(vec(-10, 0), vec(1, 0), NARROW, F(200))
    d = Sector(vec(0, 0), vec(0, 1), NARROW, F(200))  # couples with a
    inst = instance([(free("a"), a), (free("b"), b), (free("d"), d)])
    assert is_wide_spread(inst)


# --- ordering gadget -------------------------------------------------------


def gadget_base():
    return Sector(vec(0, 0), vec(1, 0), NARROW, F(10000))


def test_gadget_orders_projections():
    l = gadget_base()
    a1 = Sector(vec(1, 0), vec(-1, 0), NARROW, F(10000))
    a2 = Sector(vec(2, F(1, 10)), vec(-1, 0), NARROW, F(10000))
    rep = check_ordering_gadget(l, [a1, a2])
    assert rep.hypotheses_hold
    assert rep.order_ok and rep.passed
    assert rep.params == [1, 2]
    assert rep.ties == []


def test_gadget_reports_ties():
    l = gadget_base()
    a1 = Sector(vec(1, F(1, 20)), vec(-1, 0), NARROW, F(10000))
    a2 = Sector(vec(1, F(-1, 20)), vec(-1, 0), NARROW, F(10000))
    rep = check_ordering_gadget(l, [a1, a2])
    assert rep.order_ok and rep.ties == [1]


def test_gadget_broken_hypotheses_prove_nothing():
    l = gadget_base()
    a1 = Sector(vec(2, 0), vec(-1, 0), NARROW, F(10000))
    a2 = Sector(vec(1, 0), vec(-1, 0), NARROW, F(1, 100))  # contains nothing
    rep = check_ordering_gadget(l, [a1, a2])
    assert not rep.hypotheses_hold
    assert not rep.order_ok
    assert rep.passed  # the implication is vacuously true


def test_gadget_empty_list():
    rep = check_ordering_gadget(gadget_base(), [])
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
            assert not real.graph.out_neighbors(v)


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
    assert is_wide_spread(real.instance)


def test_realize_sectors_parameters_positive():
    real = realize_sectors(two_lines())
    assert real.tau > 0 and real.delta > 0 and real.epsilon > 0
    assert real.alpha_half.s > 0
    # opening angle regime: the full opening stays within a quarter turn
    doubled = real.alpha_half.doubled()
    assert doubled.c > 0 and doubled.s > 0


def test_failed_side_check_is_named_in_the_search_detail(monkeypatch):
    # Round 0 on two_lines() passes the graph diff, so only the patched
    # checker can reject it.
    monkeypatch.setattr(realization, "is_equiangular", lambda inst: False)
    monkeypatch.setattr(realization, "MAX_SEARCH_ROUNDS", 1)
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
    if is_mutual_couple(x, y):
        assert check_observation1(x, y)
