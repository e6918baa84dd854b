from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from conftest import ParallelLines, line_intersection, project_param
from transgraph.geometry import (
    Disk,
    Line,
    Rotation,
    Sector,
    Segment,
    Vec2,
    ZeroVector,
    acute_angle_at_least,
    angle_at_most,
    cleared,
    line_from_slope_intercept,
    rotation_from_parameter,
    vec,
)

F = Fraction

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
small_rationals = st.fractions(min_value=-100, max_value=100, max_denominator=100)


# --- rotations -------------------------------------------------------------


def test_rotation_from_parameter_values():
    assert rotation_from_parameter(0) == Rotation(F(1), F(0))
    assert rotation_from_parameter(1) == Rotation(F(0), F(1))  # quarter turn
    assert rotation_from_parameter(F(1, 3)) == Rotation(F(4, 5), F(3, 5))


def test_rotation_rejects_off_circle():
    with pytest.raises(ValueError):
        Rotation(F(1), F(1))


@given(rationals)
def test_rotation_parameter_lands_on_unit_circle(t):
    r = rotation_from_parameter(t)
    assert r.c * r.c + r.s * r.s == 1


@given(rationals, small_rationals, small_rationals)
def test_rotate_preserves_norm(t, x, y):
    r = rotation_from_parameter(t)
    v = vec(x, y)
    assert r.apply(v).norm_sq() == v.norm_sq()


@given(rationals)
def test_rotation_inverse_composes_to_identity(t):
    r = rotation_from_parameter(t)
    assert r.compose(Rotation(r.c, -r.s)) == Rotation(F(1), F(0))


def test_rotation_doubled():
    r = rotation_from_parameter(F(1, 3))  # (4/5, 3/5)
    d = r.doubled()
    assert d == r.compose(r)
    assert (d.c, d.s) == (F(7, 25), F(24, 25))


# --- angle comparisons -----------------------------------------------------


def test_angle_at_most_basic():
    quarter = rotation_from_parameter(1)
    small = rotation_from_parameter(F(1, 3))  # cos 4/5, sin 3/5
    assert angle_at_most(vec(1, 0), vec(1, 1), quarter)
    assert angle_at_most(vec(1, 0), vec(0, 1), quarter)  # boundary counts
    assert not angle_at_most(vec(1, 0), vec(0, 1), small)
    assert not angle_at_most(vec(1, 0), vec(-1, 1), quarter)
    assert angle_at_most(vec(1, 0), vec(4, 3), small)  # equal angle
    assert angle_at_most(vec(1, 0), vec(9, 3), small)  # smaller
    assert not angle_at_most(vec(1, 0), vec(3, 4), small)  # larger


def test_angle_at_most_zero_vector_raises():
    with pytest.raises(ZeroVector):
        angle_at_most(vec(0, 0), vec(1, 0), rotation_from_parameter(1))
    with pytest.raises(ZeroVector):
        acute_angle_at_least(vec(1, 0), vec(0, 0), rotation_from_parameter(1))


@given(small_rationals, small_rationals, small_rationals, small_rationals, rationals)
def test_angle_at_most_symmetric(ax, ay, bx, by, t):
    u, v = vec(ax, ay), vec(bx, by)
    if u.norm_sq() == 0 or v.norm_sq() == 0:
        return
    bound = rotation_from_parameter(abs(t))
    assert angle_at_most(u, v, bound) == angle_at_most(v, u, bound)


def test_acute_angle_at_least():
    b = rotation_from_parameter(F(1, 3))  # cos 4/5, sin 3/5
    assert acute_angle_at_least(vec(1, 0), vec(3, 4), b)  # larger
    assert acute_angle_at_least(vec(1, 0), vec(4, 3), b)  # equality counts
    assert not acute_angle_at_least(vec(1, 0), vec(9, 3), b)  # smaller
    # measured against the acute angle, direction sign is ignored
    assert acute_angle_at_least(vec(1, 0), vec(-3, 4), b)
    assert not acute_angle_at_least(vec(1, 0), vec(-9, 3), b)


def _in_rotated_cone(u, v, bound, strict=False):
    """Reference: the rotated-boundary-ray test the predicates replaced.

    v lies in the cone between u rotated by -bound and by +bound, on the u
    side of the perpendicular; closed, or open with ``strict``.  The open
    cone holds the directions strictly within angle(bound) of u.
    """
    lo, hi = Rotation(bound.c, -bound.s).apply(u), bound.apply(u)
    signs = (lo.cross(v), v.cross(hi), u.dot(v))
    return all(x > 0 for x in signs) if strict else all(x >= 0 for x in signs)


nonzero_vectors = st.builds(vec, small_rationals, small_rationals).filter(
    lambda v: not v.is_zero()
)


@given(
    nonzero_vectors,
    nonzero_vectors,
    st.fractions(min_value=0, max_value=1, max_denominator=50),
    st.sampled_from(["free", "upper ray", "lower ray"]),
    st.sampled_from([-1, 0, 1]),
    small_rationals,
    small_rationals,
)
def test_predicates_match_rotated_cone(u, v, t, where, radius_offset, ax, ay):
    bound = rotation_from_parameter(t)
    if where == "upper ray":
        v = bound.apply(u).scaled(v.norm_sq())
    elif where == "lower ray":
        v = Rotation(bound.c, -bound.s).apply(u).scaled(v.norm_sq())
    assert angle_at_most(u, v, bound) == _in_rotated_cone(u, v, bound)
    assert acute_angle_at_least(u, v, bound) == (
        not _in_rotated_cone(u, v, bound, strict=True)
        and not _in_rotated_cone(u, -v, bound, strict=True)
    )
    # the radius ends exactly at |v|, or well short of it, or well past it
    radius_sq = v.norm_sq() + radius_offset * v.norm_sq() / 2
    apex = vec(ax, ay)
    sec = Sector(apex, u, bound, radius_sq)
    assert sec.contains(apex + v) == (
        radius_offset >= 0 and _in_rotated_cone(u, v, bound)
    )
    assert sec.contains(apex)


# --- containment -----------------------------------------------------------


def test_segment_contains():
    s = Segment(vec(0, 0), vec(4, 2))
    assert s.contains(vec(2, 1))
    assert s.contains(vec(0, 0))
    assert s.contains(vec(4, 2))
    assert not s.contains(vec(6, 3))  # collinear but past the end
    assert not s.contains(vec(2, 2))


def test_a_segment_needs_distinct_ends():
    with pytest.raises(ValueError, match=r"^degenerate segment: p == q$"):
        Segment(vec(1, F(1, 2)), vec(1, F(2, 4)))
    for q in (vec(1, 3), vec(2, F(1, 2))):
        assert Segment(vec(1, F(1, 2)), q).q == q


def test_sector_contains():
    sec = Sector(vec(0, 0), vec(1, 0), rotation_from_parameter(F(1, 3)), F(25))
    assert sec.contains(vec(0, 0))  # apex belongs to the sector
    assert sec.contains(vec(4, 3))  # on the boundary ray, radius 5
    assert sec.contains(vec(4, -3))
    assert sec.contains(vec(3, 0))
    assert not sec.contains(vec(3, 4))  # outside the cone
    assert not sec.contains(vec(5, 1))  # past the radius
    assert not sec.contains(vec(-1, 0))


def test_disk_contains():
    d = Disk(vec(1, 1), F(4))
    assert d.contains(vec(3, 1))
    assert d.contains(vec(1, 1))
    assert not d.contains(vec(3, 2))


def test_sector_opening_regime():
    narrow = Sector(vec(0, 0), vec(1, 0), rotation_from_parameter(F(1, 10)), F(1))
    wide = Sector(vec(0, 0), vec(1, 0), rotation_from_parameter(F(1, 2)), F(1))
    half_plane = Sector(vec(0, 0), vec(1, 0), Rotation(F(0), F(1)), F(1))
    assert narrow.opening_at_most_quarter_pi()
    assert not wide.opening_at_most_quarter_pi()
    assert not half_plane.opening_at_most_quarter_pi()


@pytest.mark.parametrize(
    "half",
    [Rotation(F(-3, 5), F(4, 5)), Rotation(F(4, 5), F(-3, 5)), Rotation(F(-1), F(0))],
)
def test_sector_half_angle_outside_zero_to_quarter_turn_raises(half):
    with pytest.raises(ValueError):
        Sector(vec(0, 0), vec(1, 0), half, F(1))


# --- projections -----------------------------------------------------------


def test_project_param_values():
    assert project_param(vec(0, 0), vec(1, 0), vec(3, 7)) == 3
    assert project_param(vec(1, 1), vec(3, 4), vec(4, 5)) == 1


@given(small_rationals, small_rationals, small_rationals, small_rationals)
def test_project_param_translation_invariant(ox, oy, px, py):
    o, p, shift = vec(ox, oy), vec(px, py), vec(5, -3)
    u = vec(3, 4)
    assert project_param(o, u, p) == project_param(o + shift, u, p + shift)


# --- lines -----------------------------------------------------------------


def test_line_through_and_slope():
    l = Line(F(4), F(-2), F(-2))  # through (0, 1) and (2, 5)
    assert l.slope() == 2
    assert l.y_at(F(3)) == 7


def test_line_intersection():
    l1 = line_from_slope_intercept(F(0), F(0))
    l2 = line_from_slope_intercept(F(1), F(-1))
    assert line_intersection(l1, l2) == vec(1, 0)


def test_parallel_lines_raise():
    l1 = line_from_slope_intercept(F(2), F(0))
    l2 = line_from_slope_intercept(F(2), F(1))
    with pytest.raises(ParallelLines):
        line_intersection(l1, l2)


def test_rightward_direction_points_right():
    l = Line(F(6), F(-2), F(0))  # y = 3x, written with b < 0
    d = l.rightward_direction()
    assert d.x > 0
    assert d.y * d.x == 3 * d.x * d.x  # slope 3


# --- clearing denominators -------------------------------------------------


def test_cleared_values():
    assert cleared(F(1, 2), F(-2, 3)) == (3, -4)
    assert cleared(F(-3, 4), -5) == (-3, -20)
    assert cleared(0, F(0), F(5, 6)) == (0, 0, 5)
    assert cleared(0, 0) == (0, 0)
    assert cleared(3, -4) == (3, -4)
    assert cleared(F(7, 9)) == (7,)
    assert cleared(F(-7, 9)) == (-7,)
    assert cleared(1, F(1, 6), F(-1, 4)) == (12, 2, -3)
    assert all(type(v) is int for v in cleared(F(1, 2), 3, F(4)))


@given(st.lists(rationals, min_size=1, max_size=6))
def test_cleared_uses_the_least_positive_factor(values):
    out = cleared(*values)
    nonzero = [(r, v) for r, v in zip(out, values) if v != 0]
    factor = nonzero[0][0] / nonzero[0][1] if nonzero else F(1)
    assert factor.denominator == 1 and factor > 0
    assert out == tuple(v * factor for v in values)
    assert gcd(int(factor), *out) == 1


# --- cached integer forms --------------------------------------------------


@given(small_rationals, small_rationals)
def test_the_integer_forms_are_the_cleared_values(x, y):
    assert Vec2(x, y).integers == cleared(x, y)
    half = rotation_from_parameter(x)
    assert half.integers == cleared(half.c, half.s)
    if x or y:
        assert Line(x, y, x - y).integers == cleared(x, y, x - y)


def test_an_integer_form_is_computed_once_per_object():
    v = vec(F(1, 2), F(-2, 3))
    assert v.integers is v.integers == (3, -4)
    assert v.integers is not vec(F(1, 2), F(-2, 3)).integers


# Plain ints, zeros and both signs, so every validation branch is reached.
coordinates = st.one_of(st.integers(-2, 2), small_rationals)
THIRD = rotation_from_parameter(F(1, 3))


@st.composite
def _signed_rotations(draw):
    """A rotation in [0, pi/2], or one with c or s negated."""
    r = rotation_from_parameter(draw(st.fractions(min_value=0, max_value=1)))
    c, s = draw(st.sampled_from([(r.c, r.s), (-r.c, r.s), (r.c, -r.s), (-r.c, -r.s)]))
    return Rotation(c, s)


def _raises_value_error(make):
    try:
        make()
    except ValueError:
        return True
    return False


@given(coordinates, coordinates, _signed_rotations(), coordinates)
@example(0, 0, THIRD, 1)  # zero direction, int coordinates
@example(0, 3, THIRD, 2)
@example(1, 0, Rotation(THIRD.c, -THIRD.s), 1)  # negative half-angle sine
@example(1, 0, THIRD, 0)  # zero radius
@example(F(1, 2), 0, THIRD, F(-1, 3))
def test_sector_validates_where_the_fraction_predicates_do(dx, dy, half, rsq):
    expected = (dx == 0 and dy == 0) or rsq <= 0 or half.c < 0 or half.s < 0
    assert _raises_value_error(lambda: Sector(vec(0, 0), Vec2(dx, dy), half, rsq)) is expected


@given(coordinates, coordinates, coordinates)
@example(0, 0, 5)
@example(0, F(0), F(1, 2))
@example(0, 2, 1)
def test_line_validates_where_the_fraction_predicates_do(a, b, c):
    assert _raises_value_error(lambda: Line(a, b, c)) is (a == 0 and b == 0)


@given(coordinates)
@example(0)
@example(F(-1, 2))
def test_disk_validates_where_the_fraction_predicates_do(rsq):
    assert _raises_value_error(lambda: Disk(vec(1, 2), rsq)) is (rsq <= 0)
