"""Generalized transmission graphs of labelled object arrangements.

Edge x -> y exists iff object x contains the distinguished point of
object y (segment endpoint, sector apex, disk center).  Self-loops are
excluded by convention, which keeps the output directly comparable with
the reduction graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    x = v.x * factor
    y = v.y * factor
    if x.denominator != 1 or y.denominator != 1:
        raise ValueError(f"scaling by {factor} leaves ({x}, {y}) non-integral")
    return (int(x), int(y))


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
    test of ``geometry``.  This only exists because the all-pairs sweep is
    the hot loop.
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


def transmission_graph(inst: Instance) -> LabelledDigraph:
    """All-pairs containment sweep over the instance (O(m^2) exact tests)."""
    scale = _coordinate_scale(inst)
    labels = inst.labels()
    testers = [_scaled_tester(obj, scale) for obj in inst.objects()]
    points = [
        _scale_vec(distinguished_point(obj), scale) for obj in inst.objects()
    ]
    edges = []
    for i, test in enumerate(testers):
        for j, (x, y) in enumerate(points):
            if i != j and test(x, y):
                edges.append((labels[i], labels[j]))
    return digraph(labels, edges)
