"""Forward realizations: line arrangement -> labelled object arrangement.

``realize_segments`` places one segment per C/A/B label so that the
transmission graph equals the segment reduction of the arrangement's
description.  ``realize_sectors`` does the same for the SC/SA/SB sector
labels; its free parameters (band offset tau, shared half-angle, apex
offset delta, radius slack epsilon) are chosen by a verified search:
construct, verify the full graph plus all side conditions exactly, and
shrink on any mismatch.  The shrink rates differ per parameter so that
every ratio constraint (cone width vs. band offset, apex offset vs. cone
width) eventually holds.

The containing disk of the source constructions is replaced by a
vertical slab throughout; the slab boundaries play the role of the
virtual vertical line, and the boundary crossings are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .arrangement import (
    Description,
    LineArrangement,
    Slab,
    containing_slab,
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
    line_intersection,
    project_param,
    rotation_from_parameter,
)
from .graphs import A, B, C, Label, LabelledDigraph, SA, SB, SC, graph_diff
from .reductions import reduce_sectors, reduce_segments
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


class NotAMutualCouple(Exception):
    pass


class PreconditionViolated(Exception):
    pass


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


def _pick_tilt(arr: LineArrangement) -> Rotation:
    """A rotation making every tilted line direction non-parallel to every
    line; deterministic scan of the rational rotation family."""
    dirs = [arr.line(i).rightward_direction() for i in range(1, arr.n + 1)]
    for k in range(3, 3 + 2 * arr.n * arr.n + 4):
        rot = rotation_from_parameter(Fraction(1, k))
        if all(rot.apply(u).cross(v) != 0 for u in dirs for v in dirs):
            return rot
    raise RealizationError("no usable tilt rotation found")  # pragma: no cover


def _ray_line_param(origin: Point, d: Vec2, line: Line) -> Optional[Fraction]:
    """Parameter t with origin + t*d on the line, or None if parallel."""
    den = line.a * d.x + line.b * d.y
    if den == 0:
        return None
    return (line.c - line.a * origin.x - line.b * origin.y) / den


def realize_segments(arr: LineArrangement) -> SegmentRealization:
    if arr.n < 2:
        raise NonSimpleArrangement("need at least 2 lines")
    if not is_simple(arr):
        raise NonSimpleArrangement("arrangement has three concurrent lines")
    desc = extract_description(arr)
    slab = containing_slab(arr)
    tilt = _pick_tilt(arr)
    crossings = arr.intersections()

    def crossing(i: int, k: int) -> Point:
        return crossings[(min(i, k), max(i, k))]

    entries: list[tuple[Label, Segment]] = []
    for i in range(1, arr.n + 1):
        li = arr.line(i)
        entries.append(
            (C(i), Segment(li.point_at_x(slab.x_left), li.point_at_x(slab.x_right)))
        )
    for (i, k), apex in sorted(crossings.items()):
        d = tilt.apply(arr.line(i).rightward_direction())
        params = []
        for j in range(1, arr.n + 1):
            t = _ray_line_param(apex, d, arr.line(j))
            if t is not None and t > 0:
                params.append(t)
        length = min(params) / 2 if params else Fraction(1)
        entries.append((A(i, k), Segment(apex, apex + d.scaled(length))))
    for i in range(1, arr.n + 1):
        li = arr.line(i)
        far = li.point_at_x(slab.x_left - 1)
        order = desc.flat_order(i)
        xs = [crossing(i, k).x for k in order]
        for pos, k in enumerate(order):
            nxt = xs[pos + 1] if pos + 1 < len(xs) else slab.x_right
            mid_x = (xs[pos] + nxt) / 2
            entries.append((B(i, k), Segment(li.point_at_x(mid_x), far)))

    inst = instance(entries)
    graph = transmission_graph(inst)
    diff = graph_diff(reduce_segments(desc), graph)
    if not diff.empty:
        raise RealizationError(f"segment realization mismatch: {diff.summary()}")
    return SegmentRealization(inst, slab, tilt, graph, desc)


# ---------------------------------------------------------------------------
# Sector condition checkers


def is_mutual_couple(x: Sector, y: Sector) -> bool:
    return x.contains(y.apex) and y.contains(x.apex)


def _rotation_angle_leq(r1: Rotation, r2: Rotation) -> bool:
    """angle(r1) <= angle(r2) for rotations with angles in [0, pi]."""
    if r1.s < 0 or r2.s < 0:
        raise ValueError("rotations must have angles in [0, pi]")
    return r1.c >= r2.c


def check_observation1(x: Sector, y: Sector) -> bool:
    """Mutual couples have bisectors within (alpha(x)+alpha(y))/2 of
    antipodal."""
    if not is_mutual_couple(x, y):
        raise NotAMutualCouple("check_observation1 needs a mutual couple")
    bound = x.half_angle.compose(y.half_angle)
    if bound.c < 0 or bound.s < 0:
        raise ValueError("combined half-angles exceed pi/2")
    return angle_at_most(x.direction, -y.direction, bound)


def check_observation2(x: Sector, y: Sector, beta: Rotation) -> bool:
    """Outer rays of x stay at least beta - max(alpha)/2 away from the
    bisector of y (as acute angles between undirected lines)."""
    if beta.s < 0 or beta.c < 0:
        raise PreconditionViolated("beta must be an acute-angle rotation")
    half_max = x.half_angle if x.half_angle.c <= y.half_angle.c else y.half_angle
    if not _rotation_angle_leq(half_max, beta) or half_max.c == beta.c:
        raise PreconditionViolated("beta must exceed the larger half-angle")
    if not acute_angle_at_least(x.direction, y.direction, beta):
        raise PreconditionViolated("bisectors meet at an angle below beta")
    bound = beta.compose(half_max.inverse())
    lo, hi = x.boundary_rays()
    return acute_angle_at_least(lo, y.direction, bound) and acute_angle_at_least(
        hi, y.direction, bound
    )


def _require_sectors(inst: Instance) -> list[Sector]:
    sectors = []
    for label, obj in inst.entries:
        if not isinstance(obj, Sector):
            raise NonSectorObject(str(label))
        sectors.append(obj)
    return sectors


def is_equiangular(inst: Instance) -> bool:
    sectors = _require_sectors(inst)
    if not sectors:
        return True
    first = sectors[0].half_angle
    return all(s.half_angle == first for s in sectors)


def is_wide_spread(inst: Instance) -> bool:
    return _wide_spread_from_graph(inst, transmission_graph(inst))


def _wide_spread_from_graph(inst: Instance, graph: LabelledDigraph) -> bool:
    """Wide-spread test given the instance's transmission graph.

    A pair (c, c') qualifies when some sector's apex lies in both and no
    sector forms a mutual couple with both; every sector counts as a
    couple of itself (its apex is in itself), which exempts pairs that
    couple with each other.  Qualifying pairs need an acute bisector
    angle of at least twice the largest opening angle; the angle test runs
    once per distinct pair of bisector directions.
    """
    sectors = _require_sectors(inst)
    m = len(sectors)
    if m <= 1:
        return True
    labels = inst.labels()
    index = {label: i for i, label in enumerate(labels)}
    containers: list[set[int]] = [{d} for d in range(m)]
    edge_set = set()
    for u, v in graph.edges:
        containers[index[v]].add(index[u])
        edge_set.add((index[u], index[v]))
    couples: list[set[int]] = [{i} for i in range(m)]
    for i, j in edge_set:
        if (j, i) in edge_set:
            couples[i].add(j)
    qualifying = {pair for inside in containers for pair in combinations(sorted(inside), 2)}
    directions = {
        (sectors[a].direction, sectors[b].direction)
        for a, b in qualifying
        if not couples[a] & couples[b]
    }
    if not directions:
        return True
    largest = min(sectors, key=lambda s: s.half_angle.c)
    if not largest.opening_at_most_quarter_pi():
        return False  # twice the opening angle already exceeds pi/2
    two_alpha = largest.half_angle.doubled().doubled()
    return all(acute_angle_at_least(u, v, two_alpha) for u, v in directions)


@dataclass
class GadgetReport:
    hypothesis_failures: list[str] = field(default_factory=list)
    order_ok: bool = True
    ties: list[int] = field(default_factory=list)
    params: list[Fraction] = field(default_factory=list)

    @property
    def hypotheses_hold(self) -> bool:
        return not self.hypothesis_failures

    @property
    def passed(self) -> bool:
        # The check is an implication: broken hypotheses prove nothing.
        return (not self.hypotheses_hold) or self.order_ok


def check_ordering_gadget(l: Sector, sectors: Sequence[Sector]) -> GadgetReport:
    """Check the projection-order gadget: if every listed sector couples
    with ``l`` and later sectors contain earlier apexes, the apexes
    project onto the bisector of ``l`` in list order."""
    report = GadgetReport()
    for i, s in enumerate(sectors):
        if not l.contains(s.apex):
            report.hypothesis_failures.append(f"apex of #{i} not in the base sector")
        if not s.contains(l.apex):
            report.hypothesis_failures.append(f"base apex not in sector #{i}")
    for j, sj in enumerate(sectors):
        for i in range(j):
            if not sj.contains(sectors[i].apex):
                report.hypothesis_failures.append(f"apex of #{i} not in sector #{j}")
    report.params = [
        project_param(l.apex, l.direction, s.apex) for s in sectors
    ]
    for i in range(1, len(report.params)):
        if report.params[i] < report.params[i - 1]:
            report.order_ok = False
        elif report.params[i] == report.params[i - 1]:
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
    arr: LineArrangement, slab: Slab
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    lines = _normalized_lines(arr)
    slopes = [ln.slope() for ln in lines]
    # Band offset: below the vertical clearance of every intersection from
    # non-incident lines, and small against every slope difference so the
    # shifted crossings stay in order and inside the slab.
    v_clear = Fraction(1)
    for (i, j), pt in arr.intersections().items():
        for k, ln in enumerate(lines, start=1):
            if k != i and k != j:
                v_clear = min(v_clear, abs(ln.y_at(pt.x) - pt.y))
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


def _build_sector_instance(
    arr: LineArrangement,
    slab: Slab,
    tau: Fraction,
    t: Fraction,
    delta: Fraction,
    eps: Fraction,
) -> Optional[tuple[Instance, Rotation, Fraction]]:
    lines = _normalized_lines(arr)
    half = rotation_from_parameter(t)
    width = slab.width
    offsets = {1: tau, 2: Fraction(0), 3: -tau}

    shifted: dict[tuple[int, int], Line] = {}
    for i, ln in enumerate(lines, start=1):
        for m in (1, 2, 3):
            shifted[(i, m)] = ln.shifted_up(offsets[m])

    # Crossing parameters along each bisector (unit = the direction vector
    # (b, -a), so param = (x - x_left) / b).
    crossings: dict[tuple[int, int], list[tuple[Fraction, int, int]]] = {}
    min_gap = None
    for i in range(1, arr.n + 1):
        b_i = lines[i - 1].b
        for m in (1, 2, 3):
            lm = shifted[(i, m)]
            row = []
            for k in range(1, arr.n + 1):
                if k == i:
                    continue
                for mp in (1, 2, 3):
                    pt = line_intersection(lm, shifted[(k, mp)])
                    row.append(((pt.x - slab.x_left) / b_i, k, mp))
            row.sort()
            crossings[(i, m)] = row
            end = width / b_i
            params = [p for p, _, _ in row] + [end]
            if params[0] > 0:
                gaps = [params[0]] + [
                    q - p for p, q in zip(params, params[1:])
                ]
                local = min(gaps)
                min_gap = local if min_gap is None else min(min_gap, local)
            else:
                min_gap = Fraction(0)
    if min_gap is None or min_gap <= 0:
        # A shifted crossing escaped the slab or collided; caller shrinks tau.
        return None
    delta = min(delta, min_gap / 4)

    entries: list[tuple[Label, Sector]] = []
    for i in range(1, arr.n + 1):
        ln = lines[i - 1]
        u = Vec2(ln.b, -ln.a)
        rsq = width * width * (ln.a * ln.a + ln.b * ln.b) / (ln.b * ln.b)
        for m in (1, 2, 3):
            apex = shifted[(i, m)].point_at_x(slab.x_left)
            entries.append((SC(i, m), Sector(apex, u, half, rsq)))
    for i in range(1, arr.n + 1):
        ln = lines[i - 1]
        u = Vec2(ln.b, -ln.a)
        end = width / ln.b
        for m in (1, 2, 3):
            apex_c = shifted[(i, m)].point_at_x(slab.x_left)
            row = crossings[(i, m)]
            for pos, (param, k, mp) in enumerate(row):
                nxt = row[pos + 1][0] if pos + 1 < len(row) else end
                for label, at in (
                    (SA(i, m, k, mp), param - delta),
                    (SB(i, m, k, mp), (param + nxt) / 2),
                ):
                    apex = apex_c + u.scaled(at)
                    dist_sq = (apex - apex_c).norm_sq()
                    entries.append(
                        (label, Sector(apex, -u, half, dist_sq * (1 + eps)))
                    )
    return instance(entries), half, delta


def _sector_side_conditions(
    inst: Instance, graph: LabelledDigraph, desc: Description
) -> tuple[Check, ...]:
    """Evaluate every side condition of the construction.

    Returns one (name, ok, detail) triple per checker, in report order; the
    detail of a failed sweep names the objects where it fails.
    """
    objs = dict(inst.entries)
    some = next(iter(objs.values()))
    edge_set = set(graph.edges)
    couple_failures = sorted(
        f"({u}, {v})"
        for u, v in edge_set
        if (v, u) in edge_set
        and u.sort_key() < v.sort_key()
        and not check_observation1(objs[u], objs[v])
    )
    gadget_failures = []
    for i in range(1, desc.n + 1):
        expected = []
        for ok in desc.flat_order(i):
            mps = (1, 2, 3) if ok > i else (3, 2, 1)
            for mp in mps:
                expected.append((ok, mp))
        for m in (1, 2, 3):
            children = []
            for ok, mp in expected:
                children.append(objs[SA(i, m, ok, mp)])
                children.append(objs[SB(i, m, ok, mp)])
            report = check_ordering_gadget(objs[SC(i, m)], children)
            if not report.hypotheses_hold:
                gadget_failures.append(f"hypotheses fail at {SC(i, m)}")
            elif not report.order_ok or report.ties:
                gadget_failures.append(f"order fails at {SC(i, m)}")
    return (
        ("equiangular", is_equiangular(inst), ""),
        ("alpha at most pi/4", some.opening_at_most_quarter_pi(), ""),
        ("wide spread", _wide_spread_from_graph(inst, graph), ""),
        ("observation-1 sweep", not couple_failures, ", ".join(couple_failures)),
        ("ordering gadget sweep", not gadget_failures, ", ".join(gadget_failures)),
    )


MAX_SEARCH_ROUNDS = 64


def realize_sectors(arr: LineArrangement) -> SectorRealization:
    if arr.n < 2:
        raise NonSimpleArrangement("need at least 2 lines")
    if not is_simple(arr):
        raise NonSimpleArrangement("arrangement has three concurrent lines")
    desc = extract_description(arr)
    target = reduce_sectors(desc)
    slab = containing_slab(arr)
    tau0, t0, delta0, eps0 = _initial_parameters(arr, slab)

    last_detail = ""
    for rnd in range(MAX_SEARCH_ROUNDS):
        # Different shrink rates: every ratio constraint (half-angle vs.
        # band offset, apex offset vs. cone width) tends to zero.
        tau = tau0 / 2**rnd
        t = t0 / 8**rnd
        delta = delta0 / 64**rnd
        eps = eps0 / 2**rnd
        built = _build_sector_instance(arr, slab, tau, t, delta, eps)
        if built is None:
            last_detail = "shifted crossings left the slab"
            continue
        inst, half, delta_used = built
        graph = transmission_graph(inst)
        diff = graph_diff(target, graph)
        if not diff.empty:
            last_detail = diff.summary()
            continue
        checks = _sector_side_conditions(inst, graph, desc)
        failed = [
            f"{name}: {detail}" if detail else name
            for name, ok, detail in checks
            if not ok
        ]
        if failed:
            last_detail = "; ".join(failed)
            continue
        return SectorRealization(
            inst, slab, tau, delta_used, eps, half, graph, desc, checks
        )
    raise ParameterSearchExhausted(
        f"no parameters found in {MAX_SEARCH_ROUNDS} rounds", last_detail
    )
