"""Generalized transmission graphs of labelled object arrangements.

Edge x -> y exists iff object x contains the distinguished point of
object y (segment endpoint, sector apex, disk center).  Self-loops are
excluded by convention, which keeps the output directly comparable with
the reduction graphs.

A segment can only contain points on its own line, so each segment is
tested only against the points of that line; sectors and disks are tested
against every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .geometry import ArrangementObject, Disk, Point, Sector, Segment
from .graphs import Label, LabelledDigraph, digraph


class DuplicateLabel(Exception):
    pass


@dataclass(frozen=True)
class Instance:
    """A list of (label, object) pairs with unique labels."""

    entries: tuple[tuple[Label, ArrangementObject], ...]

    def __post_init__(self) -> None:
        seen = set()
        for label, _ in self.entries:
            if label in seen:
                raise DuplicateLabel(str(label))
            seen.add(label)

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[Label]:
        return [label for label, _ in self.entries]

    def objects(self) -> list[ArrangementObject]:
        return [obj for _, obj in self.entries]


def instance(entries: Iterable[tuple[Label, ArrangementObject]]) -> Instance:
    return Instance(tuple(entries))


def distinguished_point(obj: ArrangementObject) -> Point:
    if isinstance(obj, Segment):
        return obj.p
    if isinstance(obj, Sector):
        return obj.apex
    if isinstance(obj, Disk):
        return obj.center
    raise TypeError(f"not an arrangement object: {obj!r}")


def _scale_vec(v, factor: int) -> tuple[int, int]:
    x, y = v.x, v.y
    if factor % x.denominator or factor % y.denominator:
        raise ValueError(f"scaling ({x}, {y}) by {factor} leaves it non-integral")
    return (
        x.numerator * (factor // x.denominator),
        y.numerator * (factor // y.denominator),
    )


def _cleared(x: Fraction, y: Fraction) -> tuple[int, int]:
    """(x, y) times the least positive integer that makes both integral."""
    f = lcm(x.denominator, y.denominator)
    return (int(x * f), int(y * f))


def _scaled_tester(obj: ArrangementObject, scale: int) -> Callable[[int, int], bool]:
    """Integer containment kernel, equivalent to ``obj.contains`` on points
    whose coordinates times ``scale`` are integers.

    All tests are sign tests, so clearing denominators with positive
    factors changes nothing: one global factor for the points, one each
    for a sector's direction and for its half angle (c, s) in the tangent
    test of ``geometry``.  It exists because the sweep in
    ``transmission_graph`` runs it once per candidate pair: every point
    for a sector or disk, the points on its own line for a segment.
    """
    if isinstance(obj, Segment):
        px, py = _scale_vec(obj.p, scale)
        qx, qy = _scale_vec(obj.q, scale)
        dx, dy = qx - px, qy - py
        dd = dx * dx + dy * dy

        def test_segment(x: int, y: int) -> bool:
            wx, wy = x - px, y - py
            if dx * wy - dy * wx != 0:
                return False
            t = dx * wx + dy * wy
            return 0 <= t <= dd

        return test_segment

    if isinstance(obj, Sector):
        ax, ay = _scale_vec(obj.apex, scale)
        ux, uy = _cleared(obj.direction.x, obj.direction.y)
        c, s = _cleared(obj.half_angle.c, obj.half_angle.s)
        rn = obj.radius_sq.numerator
        rbound = rn * scale * scale
        rd = obj.radius_sq.denominator

        def test_sector(x: int, y: int) -> bool:
            wx, wy = x - ax, y - ay
            if (wx * wx + wy * wy) * rd > rbound:
                return False
            dot = ux * wx + uy * wy
            return dot >= 0 and abs(ux * wy - uy * wx) * c <= dot * s

        return test_sector

    if isinstance(obj, Disk):
        cx, cy = _scale_vec(obj.center, scale)
        rn = obj.radius_sq.numerator
        rbound = rn * scale * scale
        rd = obj.radius_sq.denominator

        def test_disk(x: int, y: int) -> bool:
            wx, wy = x - cx, y - cy
            return (wx * wx + wy * wy) * rd <= rbound

        return test_disk

    raise TypeError(f"not an arrangement object: {obj!r}")


def _coordinate_scale(inst: Instance) -> int:
    dens = [1]
    for _, obj in inst.entries:
        if isinstance(obj, Segment):
            pts = (obj.p, obj.q)
        elif isinstance(obj, Sector):
            pts = (obj.apex,)
        else:
            pts = (obj.center,)
        for pt in pts:
            dens.append(pt.x.denominator)
            dens.append(pt.y.denominator)
    return lcm(*dens)


def _line_direction(seg: Segment, scale: int) -> tuple[int, int]:
    """The direction of ``seg``, reduced by the gcd and sign-normalised to
    dx > 0, or dx = 0 and dy > 0, so parallel segments share it."""
    px, py = _scale_vec(seg.p, scale)
    qx, qy = _scale_vec(seg.q, scale)
    dx, dy = qx - px, qy - py
    g = gcd(dx, dy)
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return (dx // g, dy // g)


def transmission_graph(inst: Instance) -> LabelledDigraph:
    """Containment sweep over the instance, with exact integer tests.

    A sector or disk is tested against every other distinguished point.
    The segments are grouped by direction (dx, dy); a point (x, y) lies on
    the line through p exactly when ``dx*y - dy*x == dx*p.y - dy*p.x``, so
    for each direction in turn the points are bucketed by that key and
    each segment is tested only against its own bucket.  Skipped points
    have a nonzero cross product and fail the segment test anyway.
    """
    scale = _coordinate_scale(inst)
    labels = inst.labels()
    objects = inst.objects()
    points = [_scale_vec(distinguished_point(obj), scale) for obj in objects]
    edges = []
    segments_by_direction: dict[tuple[int, int], list[int]] = {}
    for i, obj in enumerate(objects):
        if isinstance(obj, Segment):
            segments_by_direction.setdefault(_line_direction(obj, scale), []).append(i)
            continue
        test = _scaled_tester(obj, scale)
        for j, (x, y) in enumerate(points):
            if i != j and test(x, y):
                edges.append((labels[i], labels[j]))
    for (dx, dy), members in segments_by_direction.items():
        on_line: dict[int, list[int]] = {}
        for j, (x, y) in enumerate(points):
            on_line.setdefault(dx * y - dy * x, []).append(j)
        for i in members:
            test = _scaled_tester(objects[i], scale)
            px, py = points[i]
            for j in on_line[dx * py - dy * px]:
                if i != j and test(*points[j]):
                    edges.append((labels[i], labels[j]))
    return digraph(labels, edges)
