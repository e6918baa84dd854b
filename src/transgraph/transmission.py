"""Generalized transmission graphs of labelled object arrangements.

Edge x -> y exists iff object x contains the distinguished point of
object y (segment endpoint, sector apex, disk center).  Self-loops are
excluded by convention, which keeps the output directly comparable with
the reduction graphs.

Every test is exact integer arithmetic on coordinates cleared of their
denominators: one ``geometry.cleared`` call scales every distinguished
point and every segment's far end by one common factor, and each kernel
takes its object's point from that result.  That call is the instance's
``scaled`` view, made on first read and kept with the instance, so the
side checks of ``realization`` read the same integers.  Segments and
sectors run the test only on the points that can pass it:

- A segment can only contain points on its own line.  The points on the
  lines of each segment direction are sorted once, by line and then along
  it, into one list, and the points a segment contains are one contiguous
  run of it: a ``bisect`` slice, emitted as edges in C with no test per
  point.
- The sectors are grouped by their cone: the cached ``integers`` of
  direction u and half angle (c, s), so a direction or half angle shared
  by many sectors is cleared once; a construction has 2n groups.  A
  point in a sector's cone has both integer keys
  ``k1 = s*(u.p) - c*(u x p)`` and ``k2 = s*(u.p) + c*(u x p)`` at least
  those of the apex, because c, s >= 0.  A sweep in descending k1 with a
  list sorted by k2 finds the points that pass both keys.  Together the
  two bounds give ``s*(u.w) >= c*|u x w|`` for w = p - apex, which for
  s > 0 is the whole tangent test; for s = 0 they give ``u x w == 0``,
  and only such a group also tests ``u.w >= 0``.  The radius test runs
  inline on the points that pass, and each sector's edges are emitted in
  C.

A disk is tested against every point; no reduction builds disks.

The edges are emitted as the integer codes rank(tail) * V + rank(head)
that ``graphs.digraph`` takes, over ``graphs.frame(labels)``, which
sorts the labels once and is handed to ``digraph`` as it is: each
object's rank is looked up once, and ``graphs.coded_run`` makes the codes
of a run of heads, in C.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

from .geometry import (
    ArrangementObject,
    Disk,
    Point,
    Sector,
    Segment,
    cleared,
)
from .graphs import Label, LabelledDigraph, coded_run, digraph, frame


class DuplicateLabel(Exception):
    pass


class ScaledInstance(NamedTuple):
    """An instance's points on integers: the distinguished point of each
    entry (``points``, in entry order) and the far end of each segment
    (``far_ends``, in the segments' entry order), all times ``scale``, the
    least positive integer that makes them integral, and each label's
    entry position (``position``)."""

    scale: int
    points: list[tuple[int, int]]
    far_ends: list[tuple[int, int]]
    position: dict[Label, int]


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

    @cached_property
    def scaled(self) -> ScaledInstance:
        """The points cleared by one ``geometry.cleared`` call, on first
        read; ``transmission_graph`` and the sector side checks read them."""
        objects = self.objects()
        pts = [distinguished_point(obj) for obj in objects]
        pts += [obj.q for obj in objects if isinstance(obj, Segment)]
        scale, *coords = cleared(1, *(v for pt in pts for v in (pt.x, pt.y)))
        scaled = list(zip(coords[::2], coords[1::2]))
        m = len(objects)
        position = {label: i for i, (label, _) in enumerate(self.entries)}
        return ScaledInstance(scale, scaled[:m], scaled[m:], position)


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


def _radius_edges(
    i: int,
    candidates: Iterable[int],
    radius_sq: Fraction,
    ranks: Sequence[int],
    points: Sequence[tuple[int, int]],
    scale: int,
) -> Iterator[int]:
    """The codes of edges i -> j for the candidates j != i within
    ``radius_sq`` of point i, tested inline on the points times ``scale``
    and emitted in C; object j's rank is ``ranks[j]``, and V is
    ``len(ranks)``.  This is a disk's whole test, and all that is left of
    a sector's once the cone sweep has chosen its candidates."""
    (ax, ay), rd = points[i], radius_sq.denominator
    rbound = radius_sq.numerator * scale * scale
    near = [
        ranks[j]
        for j in candidates
        for x, y in [points[j]]
        if j != i and ((x - ax) * (x - ax) + (y - ay) * (y - ay)) * rd <= rbound
    ]
    return coded_run(ranks[i], near, len(ranks))


def _cone_edges(
    cone: tuple[int, int, int, int],
    group: list[int],
    ranks: Sequence[int],
    objects: Sequence[ArrangementObject],
    points: Sequence[tuple[int, int]],
    scale: int,
) -> list[int]:
    """The codes of edges i -> j such that sector i of ``group`` contains
    point j.

    ``cone`` is (ux, uy, c, s): the direction u and half angle (c, s) that
    every sector of the group shares, each cleared to integers.  A
    positive factor changes no sign, so the tests below are those of
    ``Sector.contains`` on the scaled points.  For w = p - apex, the
    tangent test ``u.w >= 0 and |u x w|*c <= (u.w)*s`` implies both
    ``s*(u.w) - c*(u x w) >= 0`` and ``s*(u.w) + c*(u x w) >= 0``, because
    c, s >= 0.  Both are linear in p, so with the keys
    ``k1 = s*(u.p) - c*(u x p)`` and ``k2 = s*(u.p) + c*(u x p)`` a point
    can lie in the cone at apex a only if ``k1(p) >= k1(a)`` and
    ``k2(p) >= k2(a)``: a 2-D dominance query on the linear forms with
    coefficients (s*ux + c*uy, s*uy - c*ux) and (s*ux - c*uy, s*uy + c*ux).
    The sectors are taken in descending k1 of their apex; the points whose
    k1 reaches it join a list kept sorted by k2, and the candidates are
    that list's suffix with k2 at least the apex's.

    The two key bounds add up to ``s*(u.w) >= c*|u x w|``.  For s > 0 that
    is the whole tangent test, so a candidate only has to pass the radius
    test.  For s = 0 they give ``u x w == 0``, so only a group with s = 0
    computes ``along`` = u.p and keeps the candidates with u.p >= u.a.
    """
    ux, uy, c, s = cone
    k1x, k1y, k2x, k2y = s * ux + c * uy, s * uy - c * ux, s * ux - c * uy, s * uy + c * ux
    k1 = [k1x * x + k1y * y for x, y in points]
    k2 = [k2x * x + k2y * y for x, y in points]
    along = [] if s else [ux * x + uy * y for x, y in points]
    by_k1 = sorted(range(len(points)), key=k1.__getitem__, reverse=True)
    joined_k2: list[int] = []
    joined: list[int] = []
    nxt = 0
    edges: list[int] = []
    for i in sorted(group, key=k1.__getitem__, reverse=True):
        while nxt < len(by_k1) and k1[by_k1[nxt]] >= k1[i]:
            j = by_k1[nxt]
            pos = bisect_right(joined_k2, k2[j])
            joined_k2.insert(pos, k2[j])
            joined.insert(pos, j)
            nxt += 1
        candidates = joined[bisect_left(joined_k2, k2[i]) :]
        if not s:
            candidates = [j for j in candidates if along[j] >= along[i]]
        edges += _radius_edges(i, candidates, objects[i].radius_sq, ranks, points, scale)
    return edges


def transmission_graph(inst: Instance) -> LabelledDigraph:
    """Containment sweep over the instance, with exact integer tests.

    The sectors are grouped by their cone, the cached ``integers`` of
    their direction and half angle, and each group is swept as a dominance
    query on two integer keys (``_cone_edges``), so a sector runs its
    radius test only on the points that pass both keys.  Equal keys mean
    directions that differ by a positive factor at most and equal half
    angles, and the tangent test reads only the signs of products linear
    in u, so every member of a group has the group's cone test.
    A segment from p to q is grouped by its direction d = q - p, reduced
    by the gcd and sign-normalised to (ex, ey) with ex > 0, or ex = 0 and
    ey > 0, so parallel segments share a group.  A point (x, y) lies on
    the line through p exactly when its key ``ex*y - ey*x`` is p's.  Per
    direction, the members' lines are numbered by key, and the points on
    them are kept as (line, t, index), ``t = ex*x + ey*y``, in one sorted
    list.  Since d = g*(ex, ey), a point of the line is in the segment iff
    its t lies between t(p) and t(q), in either order, so the edges of the
    segment at position k are the ``bisect`` slices from (line, min t) to k
    and from k + 1 through (line, max t), emitted in C.  A disk is tested
    against every other distinguished point; no reduction builds disks.
    """
    labels = inst.labels()
    objects = inst.objects()
    m = len(objects)
    vertices = frame(labels)
    ranks = list(map(vertices.rank.__getitem__, labels))
    scale, points, far_ends, _ = inst.scaled
    far_ends = iter(far_ends)
    edges: list[int] = []
    segments_by_direction: dict[tuple[int, int], dict[int, int]] = {}
    cone_groups: dict[tuple[int, ...], list[int]] = {}
    for i, obj in enumerate(objects):
        if isinstance(obj, Segment):
            (px, py), (qx, qy) = points[i], next(far_ends)
            dx, dy = qx - px, qy - py
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            ex, ey = dx // g, dy // g
            segments_by_direction.setdefault((ex, ey), {})[i] = ex * qx + ey * qy
        elif isinstance(obj, Sector):
            cone = obj.direction.integers + obj.half_angle.integers
            cone_groups.setdefault(cone, []).append(i)
        else:
            edges += _radius_edges(i, range(m), obj.radius_sq, ranks, points, scale)
    for cone, group in cone_groups.items():
        edges += _cone_edges(cone, group, ranks, objects, points, scale)
    for (ex, ey), far_t in segments_by_direction.items():
        keys = [ex * y - ey * x for x, y in points]
        line_of = list(map(dict(zip(map(keys.__getitem__, far_t), count(1))).get, keys))
        on = list(compress(range(m), line_of))
        ts = [ex * x + ey * y for x, y in map(points.__getitem__, on)]
        run = sorted(zip(map(line_of.__getitem__, on), ts, on))
        run_ranks = [ranks[j] for _, _, j in run]
        for k, (line, tp, i) in enumerate(run):
            if i in far_t:
                tq = far_t[i]
                lo, hi = (tp, tq) if tp <= tq else (tq, tp)
                start = bisect_left(run, (line, lo), 0, k)
                stop = bisect_right(run, (line, hi, m), k)
                edges += coded_run(ranks[i], run_ranks[start:k], m)
                edges += coded_run(ranks[i], run_ranks[k + 1 : stop], m)
    return digraph(vertices, _codes=edges)
