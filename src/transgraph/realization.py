"""Forward realizations: line arrangement -> labelled object arrangement.

``realize_segments`` places one segment per C/A/B label so that the
transmission graph equals the segment reduction of the arrangement's
description.  ``realize_sectors`` does the same for the SC/SA/SB sector
labels; its free parameters (band offset tau, shared half-angle, apex
offset delta, radius slack epsilon) are solved in one pass: tau, the
half-angle and epsilon from the arrangement's clearances and slopes, and
delta from the cone test that every band crossing's target edge needs.
The result is then verified exactly, the full graph plus all side
conditions, and a failure raises ``ParameterSearchExhausted`` with its
reason.

Both realizations read the arrangement's crossings from one table,
``LineArrangement.crossings_by_line()``, built once in their body: each
line's crossings as integers X over one denominator D, in order along the
line.  The slab, each line's ordered crossings and the A apexes come from
its rows.  The segment realization runs on integers cleared of their
denominators (``geometry.cleared``), with a ``Fraction`` built only for
each output coordinate: the tilt scan, which hands back the tilted
directions it tested, the A-segment ray hits from each apex's row
integers, with one row of ray coefficients per line pair, and each line's
C ends, B midpoints and shared far point, placed on its cached integer
(a, b, c) (``Line.integers``, which the table reads too) at the row's Xs
and the slab ends over one denominator.

The sector realization shifts line i up by o and line k up by o', which
moves their crossing by (o' - o)/(s_i - s_k) in x, so each band crossing
is a row entry plus a multiple of the band offset.  Each line's crossing
parameters, band steps and slab end are cleared to integers once, and the
band rows are sorted and spaced on them (``_sector_layout``).

For every band crossing, ``reduce_sectors`` emits the edge
SB(i, m, k, mp) -> SA(k, mp, i, m), and the SB cone can hold the SA apex
only if the cone test holds for it.  That test is linear in delta, so each
crossing either passes at every delta or bounds it; ``_apex_offset``
takes the least bound on integers and halves delta until it is met.  The
instance is then built once (``_build_sector_instance``) and verified in
full, which alone accepts it: the radius half of ``Sector.contains`` and
the side conditions are decided there.

Labels are interned (``graphs.Label``), so the candidate's labels are the
target graph's own objects and comparing the two graphs matches every
label by identity; the same holds for the segment realization.

The containing disk of the source constructions is replaced by a
vertical slab throughout; the slab boundaries play the role of the
virtual vertical line, and the boundary crossings are exact rationals.

The sector side checks (observation 1, the ordering gadget, wide spread)
read containment from the transmission graph they are given, so each
containment is decided once, by ``transmission_graph``.  They work on the
graph's edge codes and vertex ranks (``graphs.LabelledDigraph``), take the
mutual couples from the graph, which finds them once, and number their
classes by the cached ``integers`` of the directions and half angles,
which the sectors' validation and the kernel read too, so the pass builds
no label pair per edge, hashes no ``Fraction`` and clears nothing.  Equal
cleared pairs differ by a positive factor at most, and every angle test is
invariant under positive scaling, so a class's verdict is each member's.
The angle tests decide on those same integers (``geometry``), and a
rotation's integers are its numerators, so the pass builds a ``Fraction``
only where it composes a rotation: a bound per distinct pair of half
angles, and twice the widest opening.  Observation 1 tests its bound once
per pair of classes that a couple joins, with equal directions and half
angles in one class, and reads the couples one by one only to list
failures.  Wide spread runs its angle test first, once per pair of line
classes, and looks for a qualifying pair only where that test fails, on
one int bitmask of couple partners per sector: one AND tells whether a
group of sectors shares a partner.  The ordering gadget of band (i, m)
takes its members in ``reductions.sector_order``, the order the
reduction's order edges follow, and compares their projections on the
instance's scaled points (``Instance.scaled``), the kernel's own
integers.  ``Sector.contains`` remains the reference that kernel's tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, combinations_with_replacement, count, product, repeat
from math import lcm
from operator import and_, attrgetter, itemgetter, lshift
from typing import Iterable, Optional, Sequence

from .arrangement import (
    CrossingTable,
    Description,
    LineArrangement,
    Slab,
    extract_description,
    is_simple,
)
from .geometry import (
    Line,
    Point,
    Rotation,
    Sector,
    Segment,
    Vec2,
    acute_angle_at_least,
    angle_at_most,
    cleared,
    rotation_from_parameter,
)
from .graphs import A, B, C, Edge, Label, LabelledDigraph, SA, SB, SC, coded, coded_run, decoded, graph_diff
from .reductions import reduce_sectors, reduce_segments, sector_order
from .transmission import Instance, instance, transmission_graph


# A named checker's outcome: (name, passed, detail).
Check = tuple[str, bool, str]


class NonSimpleArrangement(Exception):
    pass


class RealizationError(Exception):
    """The constructed instance failed its own verification."""


class ParameterSearchExhausted(Exception):
    def __init__(self, message: str, detail: str = ""):
        super().__init__(message)
        self.detail = detail


class NonSectorObject(Exception):
    pass


# ---------------------------------------------------------------------------
# Segment realization


@dataclass(frozen=True)
class SegmentRealization:
    instance: Instance
    slab: Slab
    tilt: Rotation
    graph: LabelledDigraph = field(compare=False)
    description: Description = field(compare=False)


def _pick_tilt(arr: LineArrangement) -> tuple[Rotation, list[tuple[int, int, int]]]:
    """A rotation making every tilted line direction non-parallel to every
    line, and each line's tilted direction d = (dx, dy)/Q as (Q, dx, dy);
    deterministic scan of the rational rotation family.

    Candidate k is ``rotation_from_parameter(1/k)``, whose (cos, sin) times
    k^2 + 1 is the integer pair (c, s) = (k^2 - 1, 2k).  A rightward
    direction (ux, uy)/f tilts to (c*ux - s*uy, s*ux + c*uy)/(f*(k^2 + 1)),
    so every parallelism test runs on integers.
    """
    dirs = [cleared(1, d.x, d.y) for d in map(Line.rightward_direction, arr.lines)]
    for k in range(3, 3 + 2 * arr.n * arr.n + 4):
        c, s, q = k * k - 1, 2 * k, k * k + 1
        tilted = [(f * q, c * ux - s * uy, s * ux + c * uy) for f, ux, uy in dirs]
        if all(tx * vy != ty * vx for _, tx, ty in tilted for _, vx, vy in dirs):
            return rotation_from_parameter(Fraction(1, k)), tilted
    raise RealizationError("no usable tilt rotation found")  # pragma: no cover


def _a_segments(
    i: int, line: tuple[int, ...], D: int, row: list, tilted: tuple[int, ...], lines: list
) -> list[tuple[Label, Segment]]:
    """The segments A(i, k), k > i, from the crossings x/D in ``row`` of
    the cleared line i, (a, b, c), along its tilted direction d = (dx, dy)/Q
    as (Q, dx, dy), each ending halfway to the nearest line hit, or at apex + d.

    With b > 0, an apex is (px, py)/P = (x*b, c*D - a*x)/(b*D).  Each line
    (a', b', c') gets one row with den = a'*dx + b'*dy, negated to make
    den > 0; den is never 0, as ``_pick_tilt`` makes d parallel to no line.
    The ray meets that line at apex + (num/den)/P * (dx, dy), with
    num = c'*P - a'*px - b'*py, ahead iff num > 0; hits compare as ints.
    """
    a, b, c = line if line[1] > 0 else (-line[0], -line[1], -line[2])
    (Q, dx, dy), P = tilted, b * D
    rays = []
    for a2, b2, c2 in lines:
        den = a2 * dx + b2 * dy
        rays.append((a2, b2, c2, den) if den > 0 else (-a2, -b2, -c2, -den))
    segments = []
    for k, x in sorted((k, x) for x, k in row if k > i):
        px, py = x * b, c * D - a * x
        best = None
        for a2, b2, c2, den in rays:
            num = c2 * P - a2 * px - b2 * py
            if num > 0 and (best is None or num * best[1] < best[0] * den):
                best = (num, den)
        # No hit: the end is apex + d, which is the hit num/den = 2P/Q.
        num, den = best or (2 * P, Q)
        h = 2 * den * P
        end = Vec2(Fraction(2 * den * px + num * dx, h), Fraction(2 * den * py + num * dy, h))
        segments.append((A(i, k), Segment(Vec2(Fraction(x, D), Fraction(py, P)), end)))
    return segments


def _line_point(line: tuple[int, int, int], x: int, den: int) -> Point:
    """The point at abscissa x/den of the cleared line a*x + b*y = c, given
    as (a, b, c): its ordinate is (c*den - a*x)/(b*den)."""
    a, b, c = line
    return Vec2(Fraction(x, den), Fraction(c * den - a * x, b * den))


def realize_segments(arr: LineArrangement) -> SegmentRealization:
    if arr.n < 2:
        raise NonSimpleArrangement("need at least 2 lines")
    if not is_simple(arr):
        raise NonSimpleArrangement("arrangement has three concurrent lines")
    desc = extract_description(arr)
    table = arr.crossings_by_line()
    slab = Slab.around(table)
    tilt, tilted = _pick_tilt(arr)
    lines = [ln.integers for ln in arr.lines]
    entries: list[tuple[Label, Segment]] = []
    a_entries: list[tuple[Label, Segment]] = []
    b_entries: list[tuple[Label, Segment]] = []
    for i, (line, (D, row), ray) in enumerate(zip(lines, table, tilted), start=1):
        # The row's crossings and the slab ends over one denominator den.
        scale, left, right = cleared(Fraction(1, D), slab.x_left, slab.x_right)
        den, xs = scale * D, [x * scale for x, _ in row]
        entries.append(
            (C(i), Segment(_line_point(line, left, den), _line_point(line, right, den)))
        )
        far = _line_point(line, left - den, den)
        for (_, k), x, nxt in zip(row, xs, xs[1:] + [right]):
            b_entries.append((B(i, k), Segment(_line_point(line, x + nxt, 2 * den), far)))
        a_entries += _a_segments(i, line, D, row, ray, lines)
    entries += a_entries + b_entries

    inst = instance(entries)
    graph = transmission_graph(inst)
    diff = graph_diff(reduce_segments(desc), graph)
    if not diff.empty:
        raise RealizationError(f"segment realization mismatch: {diff.summary()}")
    return SegmentRealization(inst, slab, tilt, graph, desc)


# ---------------------------------------------------------------------------
# Sector condition checkers.  ``graph`` is the instance's transmission graph:
# x contains the apex of y iff ``(x, y) in graph.edges``, that is iff
# ``rank[x] * V + rank[y] in graph.codes`` with ``rank = graph.rank``.  Each
# raises ``NonSectorObject`` with the label of an entry it reads that is no
# sector; only ``check_ordering_gadget`` reads less than every entry.


def check_observation1(inst: Instance, graph: LabelledDigraph) -> list[Edge]:
    """The mutual couples whose bisectors are not within
    (alpha(x)+alpha(y))/2 of antipodal, as sorted (u, v) pairs with u < v.

    A mutual couple is a pair with an edge each way in ``graph``, taken
    once, as the ranks t < h of ``graph.couples``; in that sorted order the
    failures come out sorted.  The test reads only the two directions and
    half angles, and it is symmetric in x and y, so it runs once per
    unordered pair of classes that some couple joins, the classes numbered
    by the cached ``integers`` of the two values.  Those are an exact class
    key: sectors with equal keys have directions that differ by a positive
    factor at most and equal half angles, and ``angle_at_most`` reads only
    signs, which a positive factor keeps.  The half angles are composed
    once per distinct pair of them and a direction is negated once per
    class; the couples are read one by one only to list failures.
    """
    sectors = _ranked_sectors(inst, graph)
    directions = list(map(_DIRECTION, sectors))
    number, sample = _classes(list(zip(directions, map(_HALF, sectors))), sectors)
    # The directions by their cached integers: -u is taken from here when
    # some sector points along it, so no new vector is cleared.
    along = dict(zip(directions, map(attrgetter("direction"), sectors)))
    couples = list(decoded(graph.couples, len(sectors)))
    joined = set(
        zip(
            map(number.__getitem__, map(itemgetter(0), couples)),
            map(number.__getitem__, map(itemgetter(1), couples)),
        )
    )
    bounds: dict[tuple, Rotation] = {}
    negated: dict[int, Vec2] = {}
    failing: set[tuple[int, int]] = set()
    for a, b in {(min(pair), max(pair)) for pair in joined}:
        x, y = sample[a], sample[b]
        halves = tuple(sorted((x.half_angle.integers, y.half_angle.integers)))
        if halves not in bounds:
            bounds[halves] = x.half_angle.compose(y.half_angle)
            c, s = bounds[halves].integers
            if c < 0 or s < 0:
                raise ValueError("combined half-angles exceed pi/2")
        if b not in negated:
            ux, uy = y.direction.integers
            negated[b] = along.get((-ux, -uy)) or -y.direction
        if not angle_at_most(x.direction, negated[b], bounds[halves]):
            failing |= {(a, b), (b, a)}
    if not failing:
        return []
    order = graph.order
    return [(order[t], order[h]) for t, h in couples if (number[t], number[h]) in failing]


def _require_sectors(entries: Iterable[tuple[Label, object]]) -> list[Sector]:
    sectors = []
    for label, obj in entries:
        if not isinstance(obj, Sector):
            raise NonSectorObject(str(label))
        sectors.append(obj)
    return sectors


def _ranked_sectors(inst: Instance, graph: LabelledDigraph) -> list[Sector]:
    """The instance's sectors in the graph's vertex order, indexed by rank."""
    sectors, position = _require_sectors(inst.entries), inst.scaled.position
    return list(map(sectors.__getitem__, map(position.__getitem__, graph.order)))


# A sector's class keys: the cached integers of its direction and half angle.
_DIRECTION = attrgetter("direction.integers")
_HALF = attrgetter("half_angle.integers")


def _classes(keys: list, values: Sequence) -> tuple[list[int], list]:
    """Each key's class number, numbering the distinct keys in order of
    first appearance, and one of ``values`` per class, each given beside
    its key; in C."""
    number = dict(zip(dict.fromkeys(keys), count()))
    return list(map(number.__getitem__, keys)), list(dict(zip(keys, values)).values())


def is_equiangular(inst: Instance) -> bool:
    """True iff all sectors have one half angle: one class of cached
    ``integers``, which name a rotation exactly, as it lies on the unit
    circle."""
    return len(set(map(_HALF, _require_sectors(inst.entries)))) <= 1


def is_wide_spread(inst: Instance, graph: LabelledDigraph) -> bool:
    """Wide-spread test.

    A pair (c, c') qualifies when some sector's apex lies in both and no
    sector forms a mutual couple with both; every sector counts as a
    couple of itself (its apex is in itself), which exempts pairs that
    couple with each other.  Qualifying pairs need an acute bisector
    angle of at least twice the largest opening angle.

    Directions are numbered by line class, on their cached ``integers``
    with the sign made positive: u and -u share a number, since the acute
    angle between undirected lines reads both |u x v| and |u.v| and so
    ignores their signs, and so do directions that differ by a positive
    factor, which scales both products alike.  The angle test runs first,
    once per pair of class numbers; a qualifying pair is looked for only
    among the class pairs that fail it, the narrow ones.  Each sector's
    couples are one int bitmask over the graph's vertex ranks, its own bit
    and its partners' bits, read from the graph's couples.  Each head's
    container set is grouped by class from the graph's codes, and only the
    narrow class pairs present there are visited, skipping a class alone
    with itself.  When all the members of such a pair of groups share a
    couple partner, one AND of their masks is nonzero and no pair of them
    qualifies; only otherwise are they tested pair by pair, one AND each.
    """
    sectors = _ranked_sectors(inst, graph)
    total = len(sectors)
    if total <= 1:
        return True
    directions = list(map(_DIRECTION, sectors))
    positive = {d: d if d > (0, 0) else (-d[0], -d[1]) for d in dict.fromkeys(directions)}
    classes, vectors = _classes(
        list(map(positive.__getitem__, directions)), list(map(attrgetter("direction"), sectors))
    )
    pairs = combinations_with_replacement(range(len(vectors)), 2)
    # One sector per half-angle class; the widest half angle has least c.
    halves = dict(zip(map(_HALF, sectors), sectors))
    largest = min(halves.values(), key=lambda s: s.half_angle.c)
    if largest.opening_at_most_quarter_pi():
        two_alpha = largest.half_angle.doubled().doubled()
        narrow = [
            (a, b) for a, b in pairs if not acute_angle_at_least(vectors[a], vectors[b], two_alpha)
        ]
    else:
        narrow = list(pairs)  # twice the opening angle already exceeds pi/2
    # The narrow partners b >= a of each class a.
    partners: list[list[int]] = [[] for _ in vectors]
    for a, b in narrow:
        partners[a].append(b)
    # The sectors containing the apex of sector d, by class number, and the
    # couple masks, all by rank.
    containers = [{number: [d]} for d, number in enumerate(classes)]
    masks = list(map(lshift, repeat(1), range(total)))
    for t, h in decoded(graph.codes, total):
        containers[h].setdefault(classes[t], []).append(t)
    for t, h in decoded(graph.couples, total):
        masks[t] |= 1 << h
        masks[h] |= 1 << t
    for groups in containers:
        for da, first in groups.items():
            for db in partners[da]:
                if db == da:
                    if len(first) < 2:
                        continue
                    members = first
                elif db in groups:
                    members = first + groups[db]
                else:
                    continue
                if reduce(and_, map(masks.__getitem__, members)):
                    continue
                # Built only here: each iterator copies its inputs into tuples,
                # and building them for every class raised peak memory.
                candidates = combinations(first, 2) if da == db else product(first, groups[db])
                if any(not masks[a] & masks[b] for a, b in candidates):
                    return False
    return True


@dataclass
class GadgetReport:
    hypothesis_failures: list[str] = field(default_factory=list)
    order_ok: bool = True
    ties: list[int] = field(default_factory=list)
    # The projections onto the base bisector u on integers: each member's
    # key u.p and the base apex's key u.o, times S*f (the points' scale S,
    # u's clearing factor f), and |u|^2 times S*f^2, which ``params``
    # divides out with ``factor`` f.
    keys: list[int] = field(default_factory=list)
    origin: int = 0
    usq: int = 1
    factor: int = 1

    @property
    def params(self) -> list[Fraction]:
        return [Fraction((k - self.origin) * self.factor, self.usq) for k in self.keys]

    @property
    def hypotheses_hold(self) -> bool:
        return not self.hypothesis_failures

    @property
    def passed(self) -> bool:
        # The check is an implication: broken hypotheses prove nothing.
        return (not self.hypotheses_hold) or self.order_ok


def check_ordering_gadget(
    inst: Instance, graph: LabelledDigraph, base: Label, members: Sequence[Label]
) -> GadgetReport:
    """Check the projection-order gadget: if every member couples with
    ``base`` and later members contain earlier apexes, the apexes project
    onto the bisector of ``base`` in list order.

    The members are ordered by their keys ux*x + uy*y, with (ux, uy) the
    bisector's cached ``integers``, u times a factor f > 0, and (x, y) the
    apex in the instance's scaled view, times its scale S > 0; nothing is
    cleared here.  Each key is the member's projection parameter
    u.(p - o)/|u|^2 times the positive S*f*|u|^2, plus the origin's
    constant term, so the keys give the same order and the same ties."""
    report = GadgetReport()
    codes, count, rank = graph.codes, len(graph.order), graph.rank
    b = rank[base]
    ranks = [rank[s] for s in members]
    # Every hypothesis code is tested in one C call; only when one fails do
    # the loops run, to list the failures in order.
    earlier = map(ranks.__getitem__, map(slice, range(len(ranks))))
    hypotheses = chain(
        coded_run(b, ranks, count),
        coded(ranks, repeat(b), count),
        chain.from_iterable(map(coded_run, ranks, earlier, repeat(count))),
    )
    if not codes.issuperset(hypotheses):
        pairs = zip(members, coded_run(b, ranks, count), coded(ranks, repeat(b), count))
        for s, base_holds, holds_base in pairs:
            if base_holds not in codes:
                report.hypothesis_failures.append(f"apex of {s} not in {base}")
            if holds_base not in codes:
                report.hypothesis_failures.append(f"apex of {base} not in {s}")
        for j, later in enumerate(ranks):
            for i, code in enumerate(coded_run(later, ranks[:j], count)):
                if code not in codes:
                    report.hypothesis_failures.append(f"apex of {members[i]} not in {members[j]}")
    scale, points, _, position = inst.scaled
    at = [position[s] for s in (base, *members)]
    u = _require_sectors(inst.entries[i] for i in at)[0].direction
    ux, uy = u.integers
    keys = [ux * x + uy * y for x, y in (points[i] for i in at)]
    report.origin, report.keys = keys[0], keys[1:]
    report.usq = scale * (ux * ux + uy * uy)
    report.factor = lcm(u.x.denominator, u.y.denominator)
    for i in range(1, len(report.keys)):
        if report.keys[i] < report.keys[i - 1]:
            report.order_ok = False
        elif report.keys[i] == report.keys[i - 1]:
            report.ties.append(i)
    return report


# ---------------------------------------------------------------------------
# Sector realization


@dataclass(frozen=True)
class SectorRealization:
    instance: Instance
    slab: Slab
    tau: Fraction
    delta: Fraction
    epsilon: Fraction
    alpha_half: Rotation
    graph: LabelledDigraph = field(compare=False)
    description: Description = field(compare=False)
    # The side-condition checks that certified this realization, in report
    # order; every one of them passed.
    checks: tuple[Check, ...] = field(compare=False)


def _normalized_lines(arr: LineArrangement) -> list[Line]:
    """Copies with b > 0, so "shift up" has one sign convention."""
    out = []
    for i in range(1, arr.n + 1):
        ln = arr.line(i)
        out.append(ln if ln.b > 0 else Line(-ln.a, -ln.b, -ln.c))
    return out


def _initial_parameters(
    lines: list[Line], table: CrossingTable, slab: Slab
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    slopes = [ln.slope() for ln in lines]
    # Band offset: below the vertical clearance of every intersection from
    # non-incident lines, and small against every slope difference so the
    # shifted crossings stay in order and inside the slab.  Crossing (i, j)
    # clears line k by |s_k - s_i| * |x_ij - x_ik|, least for j next to k.
    v_clear = Fraction(1)
    for s, (D, row) in zip(slopes, table):
        for (x, j), (y, k) in zip(row, row[1:]):
            gap = Fraction(y - x, D)
            v_clear = min(v_clear, abs(slopes[j - 1] - s) * gap, abs(slopes[k - 1] - s) * gap)
    slope_gap = min(
        (abs(s - t) for s, t in zip(slopes, slopes[1:])), default=Fraction(1)
    )
    tau = min(Fraction(1, 2), v_clear / 8, slope_gap / 4)
    # Half-angle parameter: cone half-width over the whole slab must stay
    # well under the band offset.
    ys = [ln.y_at(x) for ln in lines for x in (slab.x_left, slab.x_right)]
    reach = slab.width + (max(ys) - min(ys)) + 2
    steep = 1 + max(abs(s) for s in slopes)
    t0 = min(Fraction(1, 8), tau / (16 * reach * steep))
    delta = t0 / 8
    eps = Fraction(1, 8)
    return tau, t0, delta, eps


# Per line: D, the slab end E/D and the three sorted band rows of (P, k, mp),
# the crossing of band mp of line k at P/D.
BandRows = tuple[int, int, list[list[tuple[int, int, int]]]]


def _sector_layout(
    lines: list[Line], table: CrossingTable, slab: Slab, tau: Fraction, delta: Fraction
) -> Optional[tuple[list[BandRows], Fraction]]:
    """The band rows and the apex offset clamped to the rows, or None when a
    shifted crossing escapes the slab or two of them collide.

    Positions along the bisector of line i are parameters in units of its
    direction u = (b, -a), so param = (x - x_left)/b.  Shifting line i up
    by o_m and line k up by o_mp moves their crossing by
    (o_mp - o_m)/(s_i - s_k) in x, and o_mp - o_m = (m - mp) * tau.  Each
    line's crossing parameters, band steps tau/((s_i - s_k) * b) and slab
    end width/b are cleared to integers over one denominator D; the rows
    are sorted and their gaps taken on those integers.  The apex offset is
    ``delta`` clamped to a quarter of the smallest gap.
    """
    slopes = [ln.slope() for ln in lines]
    bands = []
    least = None  # the smallest gap, as (gap, D)
    for s, ln, (den, crossings) in zip(slopes, lines, table):
        D, E, *values = cleared(
            1,
            slab.width / ln.b,
            *((Fraction(x, den) - slab.x_left) / ln.b for x, _ in crossings),
            *(tau / ((s - slopes[k - 1]) * ln.b) for _, k in crossings),
        )
        at, steps = values[: len(crossings)], values[len(crossings) :]
        rows = []
        for m in (1, 2, 3):
            row = sorted(
                (p + (m - mp) * d, k, mp)
                for (_, k), p, d in zip(crossings, at, steps)
                for mp in (1, 2, 3)
            )
            params = [0, *(p for p, _, _ in row), E]
            gap = min(q - p for p, q in zip(params, params[1:]))
            if gap <= 0:
                return None
            if least is None or gap * least[1] < least[0] * D:
                least = (gap, D)
            rows.append(row)
        bands.append((D, E, rows))
    return bands, min(delta, Fraction(*least) / 4)


def _apex_offset(
    lines: list[Line], bands: list[BandRows], half: Rotation, delta: Fraction
) -> Fraction:
    """The largest delta/2^j for which every SB(i, m, k, mp) cone takes the
    apex of SA(k, mp, i, m) within its half angle.

    Both apexes sit by the crossing of band m of line i with band mp of
    line k: SB at h = (nxt - p)/(2D) after it along u_i = (b_i, -a_i), SA
    at delta before it along u_k.  Seen from the SB apex along its bisector
    -u_i, the SA apex has dot = delta*(u_i.u_k) + h*|u_i|^2 and
    cross = delta*|u_i x u_k|, and it lies in the cone iff dot >= 0 and
    cross*c <= dot*s.  That is delta*w <= h*|u_i|^2*s with
    w = |u_i x u_k|*c - (u_i.u_k)*s, which holds for every delta where
    w <= 0 (and then dot >= 0) and bounds delta by h*|u_i|^2*s/w where
    w > 0 (and then implies dot >= 0).  With the vector products cleared
    to integers by one positive factor per line, the least bound of each
    line is found on integers, by comparing the ratios g/w of the gaps
    g = nxt - p.

    ``reduce_sectors`` emits the edge SB -> SA for every crossing, and the
    cone test is necessary for it, so no offset above the least bound can
    realize the target.  The radius half of ``Sector.contains`` is left to the full
    verification.
    """
    c, s = half.integers
    us = [Vec2(ln.b, -ln.a) for ln in lines]
    bound = None
    for u, (D, E, rows) in zip(us, bands):
        usq, *products = cleared(
            u.norm_sq(), *map(u.dot, us), *(abs(u.cross(v)) for v in us)
        )
        slack = [cross * c - dot * s for dot, cross in zip(products, products[len(us) :])]
        least = None  # the smallest g/w, as (g, w)
        for row in rows:
            ends = [p for p, _, _ in row[1:]] + [E]
            for (p, k, _), nxt in zip(row, ends):
                w = slack[k - 1]
                if w > 0 and (least is None or (nxt - p) * least[1] < least[0] * w):
                    least = (nxt - p, w)
        if least is not None:
            line_bound = Fraction(least[0] * usq * s, 2 * D * least[1])
            bound = line_bound if bound is None else min(bound, line_bound)
    while bound is not None and delta > bound:
        delta /= 2
    return delta


def _build_sector_instance(
    lines: list[Line],
    slab: Slab,
    bands: list[BandRows],
    tau: Fraction,
    half: Rotation,
    delta: Fraction,
    eps: Fraction,
) -> Instance:
    """The candidate instance on its band rows: each band
    apex and squared radius is one ``Fraction`` per coordinate, built from
    an integer parameter num/den."""
    dn, dd = delta.numerator, delta.denominator
    cones: list[tuple[Label, Sector]] = []
    entries: list[tuple[Label, Sector]] = []
    for i, (ln, (D, E, rows)) in enumerate(zip(lines, bands), start=1):
        u = Vec2(ln.b, -ln.a)
        back = -u
        usq = u.norm_sq()
        grow = usq * (1 + eps)
        gn, gd = grow.numerator, grow.denominator
        cone_rsq = Fraction(E * E, D * D) * usq
        left_y = ln.y_at(slab.x_left)
        Q, ux, uy, cx, *cys = cleared(
            1, u.x, u.y, slab.x_left, left_y + tau, left_y, left_y - tau
        )
        for m, cy, row in zip((1, 2, 3), cys, rows):
            apex_c = Vec2(Fraction(cx, Q), Fraction(cy, Q))
            cones.append((SC(i, m), Sector(apex_c, u, half, cone_rsq)))
            for pos, (p, k, mp) in enumerate(row):
                nxt = row[pos + 1][0] if pos + 1 < len(row) else E
                # SA sits delta before the crossing, SB halfway to the next.
                for make, num, den in (
                    (SA, p * dd - dn * D, D * dd),
                    (SB, p + nxt, 2 * D),
                ):
                    apex = Vec2(
                        Fraction(cx * den + ux * num, Q * den),
                        Fraction(cy * den + uy * num, Q * den),
                    )
                    rsq = Fraction(num * num * gn, den * den * gd)
                    sector = Sector(apex, back, half, rsq)
                    entries.append((make(i, m, k, mp), sector))
    return instance(cones + entries)


def _sector_side_conditions(
    inst: Instance, graph: LabelledDigraph, desc: Description
) -> tuple[Check, ...]:
    """Evaluate every side condition of the construction.

    Returns one (name, ok, detail) triple per checker, in report order; the
    detail of a failed sweep names the objects where it fails.
    """
    couple_failures = sorted(f"({u}, {v})" for u, v in check_observation1(inst, graph))
    gadget_failures = []
    for i in range(1, desc.n + 1):
        order = sector_order(desc, i)
        for m in (1, 2, 3):
            members = [make(i, m, k, mp) for k, mp in order for make in (SA, SB)]
            report = check_ordering_gadget(inst, graph, SC(i, m), members)
            if not report.hypotheses_hold:
                gadget_failures.append(f"hypotheses fail at {SC(i, m)}")
            elif not report.order_ok or report.ties:
                gadget_failures.append(f"order fails at {SC(i, m)}")
    return (
        ("equiangular", is_equiangular(inst), ""),
        ("alpha at most pi/4", inst.entries[0][1].opening_at_most_quarter_pi(), ""),
        ("wide spread", is_wide_spread(inst, graph), ""),
        ("observation-1 sweep", not couple_failures, ", ".join(couple_failures)),
        ("ordering gadget sweep", not gadget_failures, ", ".join(gadget_failures)),
    )


def realize_sectors(arr: LineArrangement) -> SectorRealization:
    if arr.n < 2:
        raise NonSimpleArrangement("need at least 2 lines")
    if not is_simple(arr):
        raise NonSimpleArrangement("arrangement has three concurrent lines")
    desc = extract_description(arr)
    target = reduce_sectors(desc)
    table = arr.crossings_by_line()
    slab = Slab.around(table)
    lines = _normalized_lines(arr)
    tau, t, delta, eps = _initial_parameters(lines, table, slab)
    half = rotation_from_parameter(t)
    message = "solved sector parameters failed verification"
    layout = _sector_layout(lines, table, slab, tau, delta)
    if layout is None:
        raise ParameterSearchExhausted(message, "shifted crossings left the slab")
    bands, delta = layout
    delta = _apex_offset(lines, bands, half, delta)
    inst = _build_sector_instance(lines, slab, bands, tau, half, delta, eps)
    graph = transmission_graph(inst)
    diff = graph_diff(target, graph)
    if not diff.empty:
        raise ParameterSearchExhausted(message, diff.summary())
    checks = _sector_side_conditions(inst, graph, desc)
    failed = [
        f"{name}: {detail}" if detail else name
        for name, ok, detail in checks
        if not ok
    ]
    if failed:
        raise ParameterSearchExhausted(message, "; ".join(failed))
    return SectorRealization(inst, slab, tau, delta, eps, half, graph, desc, checks)
