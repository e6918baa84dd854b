"""Generalized transmission graphs of labelled object arrangements.

Edge x -> y exists iff object x contains the distinguished point of
object y (segment endpoint, sector apex, disk center).  Self-loops are
excluded by convention, which keeps the output directly comparable with
the reduction graphs.

Every test is exact integer arithmetic on coordinates cleared of their
denominators: one ``geometry.cleared`` call scales every distinguished
point and every segment's far end by one common factor, and each kernel
takes its object's point from that result.  Segments and sectors run the
test only on the points that can pass it:

- A segment can only contain points on its own line.  The points of each
  line that holds a segment are sorted along it, once per line, and the
  points a segment contains are one contiguous run of that order: a
  ``bisect`` slice, emitted as edges in C with no test per point.
- The sectors are grouped by (direction u, half angle (c, s)); a
  construction has 2n groups.  A point in a sector's cone has both integer
  keys ``k1 = s*(u.p) - c*(u x p)`` and ``k2 = s*(u.p) + c*(u x p)`` at
  least those of the apex, because c, s >= 0.  A sweep in descending k1
  with a list sorted by k2 finds the points that pass both keys, which
  decides the tangent test, and the radius test runs on those alone.

A disk is tested against every point; no reduction builds disks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count, repeat
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .geometry import (
    ArrangementObject,
    Disk,
    Point,
    Rotation,
    Sector,
    Segment,
    Vec2,
    cleared,
)
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


def _scaled_tester(
    disk: Disk, scale: int, center: tuple[int, int]
) -> Callable[[int, int], bool]:
    """Integer containment kernel of a disk, equivalent to
    ``disk.contains`` on points whose coordinates times ``scale`` are
    integers; ``center`` is the disk's centre times ``scale``.

    All tests are sign tests, so clearing denominators with one positive
    global factor changes nothing.  Sectors have their own kernel,
    ``_sector_tester``; a segment needs no kernel, because
    ``transmission_graph`` takes its points as a range of its line.
    """
    cx, cy = center
    rbound = disk.radius_sq.numerator * scale * scale
    rd = disk.radius_sq.denominator

    def test_disk(x: int, y: int) -> bool:
        wx, wy = x - cx, y - cy
        return (wx * wx + wy * wy) * rd <= rbound

    return test_disk


def _sector_tester(
    sec: Sector, scale: int, apex: tuple[int, int], cone: tuple[int, int, int, int]
) -> Callable[[int, int], bool]:
    """Integer containment kernel of a sector, equivalent to
    ``sec.contains`` on the points ``_cone_edges`` hands it: coordinates
    times ``scale`` are integers, and both cone keys are at least the
    apex's.  ``apex`` is the sector's apex times ``scale``.

    ``cone`` is (ux, uy, c, s), the sector's direction and half angle each
    times a positive integer that makes them integral.  Such factors
    change no sign, and every sector of one cone group shares them, so the
    group clears them once.

    The key bounds give ``s*dot >= c*|cross|``: for s > 0 that is the
    whole tangent test, so only the radius test is left.  For s = 0 they
    give ``cross == 0``, and ``dot >= 0`` is still tested.
    """
    ax, ay = apex
    ux, uy, _, s = cone
    rbound = sec.radius_sq.numerator * scale * scale
    rd = sec.radius_sq.denominator

    def test_sector(x: int, y: int) -> bool:
        wx, wy = x - ax, y - ay
        return (wx * wx + wy * wy) * rd <= rbound and (s > 0 or ux * wx + uy * wy >= 0)

    return test_sector


def _cone_edges(
    group: list[int],
    labels: Sequence[Label],
    objects: Sequence[ArrangementObject],
    points: Sequence[tuple[int, int]],
    scale: int,
) -> Iterator[tuple[Label, Label]]:
    """Edges i -> j such that sector i of ``group`` contains point j.

    Every sector of the group has the same direction u and half angle
    (c, s), cleared to integers once.  For w = p - apex, the tangent test
    ``u.w >= 0 and |u x w|*c <= (u.w)*s`` implies both
    ``s*(u.w) - c*(u x w) >= 0`` and ``s*(u.w) + c*(u x w) >= 0``, because
    c, s >= 0.  Both are linear in p, so with the keys
    ``k1 = s*(u.p) - c*(u x p)`` and ``k2 = s*(u.p) + c*(u x p)`` a point
    can lie in the cone at apex a only if ``k1(p) >= k1(a)`` and
    ``k2(p) >= k2(a)``: a 2-D dominance query.  The sectors are taken in
    descending k1 of their apex; the points whose k1 reaches it join a
    list kept sorted by k2, and the exact kernel runs only on that list's
    suffix with k2 at least the apex's.
    """
    first = objects[group[0]]
    ux, uy = cleared(first.direction.x, first.direction.y)
    c, s = cleared(first.half_angle.c, first.half_angle.s)
    k1, k2 = [], []
    for x, y in points:
        along, across = ux * x + uy * y, ux * y - uy * x
        k1.append(s * along - c * across)
        k2.append(s * along + c * across)
    by_k1 = sorted(range(len(points)), key=k1.__getitem__, reverse=True)
    joined_k2: list[int] = []
    joined: list[int] = []
    nxt = 0
    for i in sorted(group, key=k1.__getitem__, reverse=True):
        while nxt < len(by_k1) and k1[by_k1[nxt]] >= k1[i]:
            j = by_k1[nxt]
            pos = bisect_right(joined_k2, k2[j])
            joined_k2.insert(pos, k2[j])
            joined.insert(pos, j)
            nxt += 1
        test = _sector_tester(objects[i], scale, points[i], (ux, uy, c, s))
        for j in joined[bisect_left(joined_k2, k2[i]) :]:
            if j != i and test(*points[j]):
                yield labels[i], labels[j]


def transmission_graph(inst: Instance) -> LabelledDigraph:
    """Containment sweep over the instance, with exact integer tests.

    The sectors are grouped by (direction, half angle), and each group is
    swept as a dominance query on two integer keys (``_cone_edges``), so
    a sector runs its exact test only on the points that pass both keys.
    A segment from p to q is grouped by its direction d = q - p, reduced
    by the gcd and sign-normalised to (ex, ey) with ex > 0, or ex = 0 and
    ey > 0, so parallel segments share a group.  A point (x, y) lies on
    the line through p exactly when ``ex*y - ey*x == ex*p.y - ey*p.x``;
    for each direction in turn the points whose key is a member's line
    are kept, and each line's points are sorted by ``t = ex*x + ey*y``.
    Since d = g*(ex, ey), a point of the line is in the segment iff its t
    lies between t(p) and t(q), in either order, so the segment's edges
    are one ``bisect`` slice of its line's run, less its own position,
    emitted in C.  A disk is tested against every other distinguished
    point; no reduction builds disks.
    """
    labels = inst.labels()
    objects = inst.objects()
    m = len(objects)
    pts = [distinguished_point(obj) for obj in objects]
    pts += [obj.q for obj in objects if isinstance(obj, Segment)]
    scale, *coords = cleared(1, *(v for pt in pts for v in (pt.x, pt.y)))
    scaled = list(zip(coords[::2], coords[1::2]))
    points, far_ends = scaled[:m], iter(scaled[m:])
    edges = []
    segments_by_direction: dict[tuple[int, int], list[tuple[int, int]]] = {}
    cone_groups: dict[tuple[Vec2, Rotation], list[int]] = {}
    for i, obj in enumerate(objects):
        if isinstance(obj, Segment):
            (px, py), (qx, qy) = points[i], next(far_ends)
            dx, dy = qx - px, qy - py
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            ex, ey = dx // g, dy // g
            segments_by_direction.setdefault((ex, ey), []).append((i, ex * qx + ey * qy))
        elif isinstance(obj, Sector):
            cone_groups.setdefault((obj.direction, obj.half_angle), []).append(i)
        else:
            test = _scaled_tester(obj, scale, points[i])
            for j, (x, y) in enumerate(points):
                if i != j and test(x, y):
                    edges.append((labels[i], labels[j]))
    for group in cone_groups.values():
        edges += _cone_edges(group, labels, objects, points, scale)
    for (ex, ey), members in segments_by_direction.items():
        keys = [ex * y - ey * x for x, y in points]
        on_line: dict[int, list[int]] = {keys[i]: [] for i, _ in members}
        for j in compress(range(m), map(on_line.__contains__, keys)):
            on_line[keys[j]].append(j)
        t, position, runs = {}, {}, {}
        for key, run in on_line.items():
            for j in run:
                x, y = points[j]
                t[j] = ex * x + ey * y
            run.sort(key=t.__getitem__)
            position.update(zip(run, count()))
            runs[key] = (list(map(t.__getitem__, run)), list(map(labels.__getitem__, run)))
        for i, tq in members:
            ts, run_labels = runs[keys[i]]
            lo, hi = sorted((t[i], tq))
            k, tail = position[i], repeat(labels[i])
            edges += zip(tail, run_labels[bisect_left(ts, lo) : k])
            edges += zip(tail, run_labels[k + 1 : bisect_right(ts, hi)])
    return digraph(labels, edges)
