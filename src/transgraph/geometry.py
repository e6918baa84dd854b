"""Exact rational points, rotations, lines, and the arrangement objects.

Every value is an immutable exact quantity: coordinates are
``fractions.Fraction``, rotations are exact (cos, sin) pairs on the unit
circle, and a line is the locus a*x + b*y = c.  Each object (segment,
sector, disk) has one exact containment test, ``contains``.  All
predicates below are decided by sign tests on rational expressions, so
there is no rounding anywhere in the pipeline.  ``cleared`` is the
package's one routine for clearing denominators; the integer kernels of
``arrangement``, ``realization`` and ``transmission`` run on its output.

``Vec2``, ``Rotation`` and ``Line`` each keep their cleared values as
``integers``, computed on first read and kept on the frozen value, so an
object shared by many sectors or read by many passes is cleared once.
``Sector`` and ``Line`` validate on those integers, and the kernels key
and scale on them.  Two values with equal ``integers`` differ by a
positive factor at most (a rotation, on the unit circle, not even that),
and every predicate below reads only signs and ratios, which a positive
factor keeps; so equal ``integers`` are an exact class key for any
angle or cone verdict.

Every cone and angle predicate is one tangent test.  For an angle bound
(c, s) with c, s >= 0, i.e. an angle in [0, pi/2], the angle between u and
v is at most the bound iff u.v >= 0 and |u x v| * c <= (u.v) * s; the
acute angle between their lines is at least the bound iff
|u x v| * c >= |u.v| * s.  No vector is rotated to decide either.
``angle_at_most``, ``acute_angle_at_least`` and
``Sector.opening_at_most_quarter_pi`` decide it on the cached ``integers``
of their vectors and rotations (a rotation's are the numerators of c and
s, which share one denominator): each side of the test is a product of
one factor from each of them, so clearing multiplies both sides by one
positive factor and keeps the verdict, and no ``Fraction`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Union

RationalLike = Union[Fraction, int, str]


def cleared(*values: Union[Fraction, int]) -> tuple[int, ...]:
    """The values times the least positive integer that makes them all
    integral.

    A positive factor changes no sign and no ratio, so sign tests and
    quotients of the results equal those of the values.  Passing 1 first
    returns the factor itself as the first entry.
    """
    f = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (f // v.denominator) for v in values)


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

    @cached_property
    def integers(self) -> tuple[int, int]:
        """``cleared(x, y)``: the vector times a positive integer, so it has
        the direction, the sense and the zero test of the vector."""
        return cleared(self.x, self.y)


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

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(
            self.c * other.c - self.s * other.s,
            self.s * other.c + self.c * other.s,
        )

    def doubled(self) -> "Rotation":
        return self.compose(self)

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.c * v.x - self.s * v.y, self.s * v.x + self.c * v.y)

    @cached_property
    def integers(self) -> tuple[int, int]:
        """``cleared(c, s)``: the signs and the ratio of (c, s), which fix
        the rotation, as (c, s) lies on the unit circle.

        That is the numerators of c and s: in lowest terms c = p/q and
        s = r/t, and p^2 t^2 + r^2 q^2 = q^2 t^2 makes q^2 divide t^2 and
        t^2 divide q^2, so q = t, and a composed or doubled rotation has
        its integers with no clearing."""
        return self.c.numerator, self.s.numerator


def rotation_from_parameter(t: RationalLike) -> Rotation:
    """Rotation by the angle whose half-tangent is ``t``.

    (c, s) = ((1-t^2)/(1+t^2), 2t/(1+t^2)); the angle tends to 0 as
    t -> 0+ and covers all rational points of the circle except (-1, 0).
    """
    t = Fraction(t)
    den = 1 + t * t
    return Rotation((1 - t * t) / den, 2 * t / den)


def _within(dot: Union[Fraction, int], cross: Union[Fraction, int], bound: Rotation) -> bool:
    """The tangent test on the dot and cross products of two vectors,
    given up to a positive factor, and the bound's cached ``integers``."""
    c, s = bound.integers
    return dot >= 0 and abs(cross) * c <= dot * s


def _products(u: Vec2, v: Vec2, name: str) -> tuple[int, int]:
    """The dot and cross products of the cached ``integers`` of u and v:
    those of u and v times one positive factor."""
    (ux, uy), (vx, vy) = u.integers, v.integers
    if not (ux or uy) or not (vx or vy):
        raise ZeroVector(f"{name} needs nonzero vectors")
    return ux * vx + uy * vy, ux * vy - uy * vx


def angle_at_most(u: Vec2, v: Vec2, bound: Rotation) -> bool:
    """Exact test: unsigned angle between u and v <= angle(bound), a bound
    in [0, pi/2].  Decided on the cached ``integers`` of u, v and the
    bound, so vectors that differ by a positive factor get one verdict."""
    dot, cross = _products(u, v, "angle_at_most")
    return _within(dot, cross, bound)


def acute_angle_at_least(u: Vec2, v: Vec2, bound: Rotation) -> bool:
    """True iff the acute angle between the *undirected* lines of u and v
    is at least angle(bound).  Same contract as :func:`angle_at_most`,
    decided on the same cached ``integers``."""
    dot, cross = _products(u, v, "acute_angle_at_least")
    c, s = bound.integers
    return abs(cross) * c >= abs(dot) * s


@dataclass(frozen=True)
class Segment:
    """A line segment with a distinguished endpoint ``p``."""

    p: Point
    q: Point

    def __post_init__(self) -> None:
        if self.p.x == self.q.x and self.p.y == self.q.y:
            raise ValueError("degenerate segment: p == q")

    def contains(self, pt: Point) -> bool:
        """On the closed segment.  The containment specification that the
        transmission kernel's tests compare against."""
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
        # On the cached integers, which have the values' signs: a direction
        # shared by many sectors is cleared once, by the first of them.
        if self.direction.integers == (0, 0):
            raise ValueError("sector direction must be nonzero")
        if self.radius_sq.numerator <= 0:
            raise ValueError("sector needs a positive squared radius")
        c, s = self.half_angle.integers
        if c < 0 or s < 0:
            raise ValueError("sector half angle must lie in [0, pi/2]")

    def opening_at_most_quarter_pi(self) -> bool:
        """Exact test for the opening-angle regime alpha <= pi/4.

        Twice the half angle lies in [0, pi]; it is at most pi/4 iff its
        cosine is at least its sine.  With (c, s) the half angle's cached
        ``integers``, the doubled rotation is (c^2 - s^2, 2cs) times a
        positive factor, which keeps the comparison.
        """
        c, s = self.half_angle.integers
        return c * c - s * s >= 2 * c * s

    def contains(self, pt: Point) -> bool:
        """Within the radius and the half angle of the bisector (closed).
        The containment specification that the transmission kernel's tests
        compare against."""
        w = pt - self.apex
        if w.norm_sq() > self.radius_sq:
            return False
        return _within(self.direction.dot(w), self.direction.cross(w), self.half_angle)


@dataclass(frozen=True)
class Disk:
    center: Point
    radius_sq: Fraction

    def __post_init__(self) -> None:
        if self.radius_sq.numerator <= 0:
            raise ValueError("disk needs a positive squared radius")

    def contains(self, pt: Point) -> bool:
        """In the closed disk.  The containment specification that the
        transmission kernel's tests compare against."""
        return (pt - self.center).norm_sq() <= self.radius_sq


ArrangementObject = Union[Segment, Sector, Disk]


@dataclass(frozen=True)
class Line:
    """The locus a*x + b*y = c."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        if self.integers[:2] == (0, 0):
            raise ValueError("degenerate line: a = b = 0")

    @cached_property
    def integers(self) -> tuple[int, int, int]:
        """``cleared(a, b, c)``: the same line, on integer coefficients.
        Computed when the line is built, as its validation reads it."""
        return cleared(self.a, self.b, self.c)

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

    def rightward_direction(self) -> Vec2:
        """Direction along the line with positive x component."""
        if self.b == 0:
            raise ValueError("vertical line has no rightward direction")
        d = Vec2(self.b, -self.a)
        return d if d.x > 0 else -d


def line_from_slope_intercept(slope: RationalLike, intercept: RationalLike) -> Line:
    s = Fraction(slope)
    return Line(-s, Fraction(1), Fraction(intercept))
