"""Exact rational points, rotations, and containment predicates.

Every value is an immutable exact quantity: coordinates are
``fractions.Fraction``, rotations are exact (cos, sin) pairs on the unit
circle.  All predicates below are decided by sign tests on rational
expressions, so there is no rounding anywhere in the pipeline.

Every cone and angle predicate is one tangent test.  For an angle bound
(c, s) with c, s >= 0, i.e. an angle in [0, pi/2], the angle between u and
v is at most the bound iff u.v >= 0 and |u x v| * c <= (u.v) * s; the
acute angle between their lines is at least the bound iff
|u x v| * c >= |u.v| * s.  No vector is rotated to decide either.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]


class ParallelLines(Exception):
    """Raised when intersecting two parallel (or identical) lines."""


class ZeroVector(Exception):
    """Raised when a direction-dependent predicate receives (0, 0)."""


@dataclass(frozen=True)
class Vec2:
    """A point or direction vector with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scaled(self, factor: Fraction) -> "Vec2":
        return Vec2(self.x * factor, self.y * factor)

    def dot(self, other: "Vec2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Fraction:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def vec(x: RationalLike, y: RationalLike) -> Vec2:
    return Vec2(Fraction(x), Fraction(y))


Point = Vec2


@dataclass(frozen=True)
class Rotation:
    """An exact rotation, stored as a point (c, s) on the unit circle.

    Composition multiplies angles, so a rotation standing for a half
    opening angle can be doubled exactly; "the same opening angle" is
    plain equality of the (c, s) pair.
    """

    c: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        if self.c * self.c + self.s * self.s != 1:
            raise ValueError(f"({self.c}, {self.s}) is not on the unit circle")

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(Fraction(1), Fraction(0))

    @staticmethod
    def from_parameter(t: RationalLike) -> "Rotation":
        """Rotation by the angle whose half-tangent is ``t``.

        (c, s) = ((1-t^2)/(1+t^2), 2t/(1+t^2)); the angle tends to 0 as
        t -> 0+ and covers all rational points of the circle except
        (-1, 0).
        """
        t = Fraction(t)
        den = 1 + t * t
        return Rotation((1 - t * t) / den, 2 * t / den)

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(
            self.c * other.c - self.s * other.s,
            self.s * other.c + self.c * other.s,
        )

    def inverse(self) -> "Rotation":
        return Rotation(self.c, -self.s)

    def doubled(self) -> "Rotation":
        return self.compose(self)

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.c * v.x - self.s * v.y, self.s * v.x + self.c * v.y)


def rotation_from_parameter(t: RationalLike) -> Rotation:
    return Rotation.from_parameter(t)


def rotate(v: Vec2, r: Rotation, sign: int = +1) -> Vec2:
    """Rotate ``v`` by the angle of ``r`` (counter-clockwise for +1)."""
    if sign >= 0:
        return r.apply(v)
    return r.inverse().apply(v)


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 ccw, -1 cw, 0 collinear."""
    d = (b - a).cross(c - a)
    return (d > 0) - (d < 0)


def _within(dot: Fraction, cross: Fraction, bound: Rotation) -> bool:
    """The tangent test on the dot and cross products of two vectors."""
    return dot >= 0 and abs(cross) * bound.c <= dot * bound.s


def angle_at_most(u: Vec2, v: Vec2, bound: Rotation) -> bool:
    """Exact test: unsigned angle between u and v <= angle(bound), a bound in [0, pi/2]."""
    if u.is_zero() or v.is_zero():
        raise ZeroVector("angle_at_most needs nonzero vectors")
    return _within(u.dot(v), u.cross(v), bound)


def acute_angle_at_least(u: Vec2, v: Vec2, bound: Rotation) -> bool:
    """True iff the acute angle between the *undirected* lines of u and v
    is at least angle(bound).  Same contract as :func:`angle_at_most`."""
    if u.is_zero() or v.is_zero():
        raise ZeroVector("acute_angle_at_least needs nonzero vectors")
    return abs(u.cross(v)) * bound.c >= abs(u.dot(v)) * bound.s


@dataclass(frozen=True)
class Segment:
    """A line segment with a distinguished endpoint ``p``."""

    p: Point
    q: Point

    def __post_init__(self) -> None:
        if self.p == self.q:
            raise ValueError("degenerate segment: p == q")

    def direction(self) -> Vec2:
        return self.q - self.p

    def contains(self, pt: Point) -> bool:
        d = self.q - self.p
        w = pt - self.p
        if d.cross(w) != 0:
            return False
        t = d.dot(w)
        return 0 <= t <= d.norm_sq()


@dataclass(frozen=True)
class Sector:
    """A circular sector: apex, bisector direction, half opening angle,
    squared radius.

    ``half_angle`` stores the rotation by half the opening angle, so the
    two boundary rays are the direction rotated by +-half_angle and
    "equal opening angles" is exact equality of rotations.  The half angle
    must lie in [0, pi/2]: an opening angle of at most pi.
    """

    apex: Point
    direction: Vec2
    half_angle: Rotation
    radius_sq: Fraction

    def __post_init__(self) -> None:
        if self.direction.is_zero():
            raise ValueError("sector direction must be nonzero")
        if self.radius_sq <= 0:
            raise ValueError("sector needs a positive squared radius")
        if self.half_angle.c < 0 or self.half_angle.s < 0:
            raise ValueError("sector half angle must lie in [0, pi/2]")

    def boundary_rays(self) -> tuple[Vec2, Vec2]:
        return (
            self.half_angle.inverse().apply(self.direction),
            self.half_angle.apply(self.direction),
        )

    def opening_at_most_quarter_pi(self) -> bool:
        """Exact test for the opening-angle regime alpha <= pi/4.

        Twice the half angle lies in [0, pi]; it is at most pi/4 iff its
        cosine is at least its sine.
        """
        double = self.half_angle.doubled()
        return double.c >= double.s

    def contains(self, pt: Point) -> bool:
        """Within the radius and the half angle of the bisector (closed)."""
        w = pt - self.apex
        if w.norm_sq() > self.radius_sq:
            return False
        return _within(self.direction.dot(w), self.direction.cross(w), self.half_angle)


@dataclass(frozen=True)
class Disk:
    center: Point
    radius_sq: Fraction

    def __post_init__(self) -> None:
        if self.radius_sq <= 0:
            raise ValueError("disk needs a positive squared radius")

    def contains(self, pt: Point) -> bool:
        return (pt - self.center).norm_sq() <= self.radius_sq


ArrangementObject = Union[Segment, Sector, Disk]


def contains_point(obj: ArrangementObject, pt: Point) -> bool:
    """Closed-set membership for any arrangement object."""
    return obj.contains(pt)


def project_param(origin: Point, u: Vec2, pt: Point) -> Fraction:
    """Parameter of ``pt`` projected onto the directed line origin + t*u.

    Parameters are ordered exactly as the projections along the line;
    the origin projects to 0.
    """
    if u.is_zero():
        raise ZeroVector("projection direction must be nonzero")
    return u.dot(pt - origin) / u.norm_sq()


@dataclass(frozen=True)
class Line:
    """The locus a*x + b*y = c."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError("degenerate line: a = b = 0")

    def is_vertical(self) -> bool:
        return self.b == 0

    def slope(self) -> Fraction:
        if self.b == 0:
            raise ValueError("vertical line has no slope")
        return -self.a / self.b

    def y_at(self, x: Fraction) -> Fraction:
        if self.b == 0:
            raise ValueError("vertical line is not a function of x")
        return (self.c - self.a * x) / self.b

    def point_at_x(self, x: RationalLike) -> Point:
        x = Fraction(x)
        return Vec2(x, self.y_at(x))

    def rightward_direction(self) -> Vec2:
        """Direction along the line with positive x component."""
        if self.b == 0:
            raise ValueError("vertical line has no rightward direction")
        d = Vec2(self.b, -self.a)
        return d if d.x > 0 else -d

    def contains(self, pt: Point) -> bool:
        return self.a * pt.x + self.b * pt.y == self.c

    def shifted_up(self, dy: RationalLike) -> "Line":
        """The line translated vertically by ``dy`` (non-vertical only)."""
        if self.b == 0:
            raise ValueError("cannot vertically shift a vertical line")
        return Line(self.a, self.b, self.c + self.b * Fraction(dy))


def line_through(p: Point, q: Point) -> Line:
    if p == q:
        raise ValueError("need two distinct points")
    a = q.y - p.y
    b = p.x - q.x
    return Line(a, b, a * p.x + b * p.y)


def line_from_slope_intercept(slope: RationalLike, intercept: RationalLike) -> Line:
    s = Fraction(slope)
    return Line(-s, Fraction(1), Fraction(intercept))


def line_intersection(l1: Line, l2: Line) -> Point:
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLines(f"{l1} and {l2} do not meet in one point")
    x = (l1.c * l2.b - l2.c * l1.b) / det
    y = (l1.a * l2.c - l2.a * l1.c) / det
    return Vec2(x, y)
