"""Acceptance suite: one test per top-level guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import project_param
from transgraph import realization, verification
from transgraph.arrangement import LineArrangement, extract_description
from transgraph.geometry import (
    Line,
    Sector,
    rotation_from_parameter,
    vec,
)
from transgraph.graphs import SA, SB, SC, digraph, free, graph_diff
from transgraph.realization import (
    check_observation1,
    check_ordering_gadget,
    is_wide_spread,
    realize_sectors,
    realize_segments,
)
from transgraph.reductions import (
    SECTOR_FAMILIES,
    SEGMENT_FAMILIES,
    reduce_sectors,
    reduce_segments,
    sector_order,
    sector_vertex_count,
    segment_vertex_count,
)
from transgraph.transmission import instance, transmission_graph
from transgraph.verification import (
    RandomSpec,
    random_simple_arrangement,
    round_trip_sectors,
    round_trip_segments,
)

F = Fraction

SEGMENT_NS = (2, 3, 4, 5, 6)
SEGMENT_SEEDS = range(50)
SECTOR_NS = (2, 3, 4)
SECTOR_SEEDS = range(25)


def announce(number, ok, detail):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def segment_suite():
    t0 = time.monotonic()
    cases = []
    for n in SEGMENT_NS:
        for seed in SEGMENT_SEEDS:
            arr = random_simple_arrangement(RandomSpec(n=n, seed=seed))
            rep = round_trip_segments(arr)
            cases.append((arr, rep))
    return {"cases": cases, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def sector_suite():
    # The realized instances are kept too, for the all-pairs reference.
    instances = []

    def recording_realize(arr):
        realized = realize_sectors(arr)
        instances.append(realized.instance)
        return realized

    t0 = time.monotonic()
    cases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "realize_sectors", recording_realize)
        for n in SECTOR_NS:
            for seed in SECTOR_SEEDS:
                arr = random_simple_arrangement(RandomSpec(n=n, seed=seed))
                rep = round_trip_sectors(arr)
                cases.append((arr, rep))
    return {"cases": cases, "instances": instances, "elapsed": time.monotonic() - t0}


def test_criterion_1_segment_round_trips(segment_suite):
    failures = [rep for _, rep in segment_suite["cases"] if not rep.diff.empty]
    elapsed = segment_suite["elapsed"]
    ok = not failures and elapsed < 60
    announce(
        1,
        ok,
        f"{len(segment_suite['cases']) - len(failures)}/250 segment round trips "
        f"with empty diff in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_sector_round_trips(sector_suite):
    failures = [rep for _, rep in sector_suite["cases"] if not rep.passed]
    elapsed = sector_suite["elapsed"]
    ok = not failures and elapsed < 600
    announce(
        2,
        ok,
        f"{len(sector_suite['cases']) - len(failures)}/75 sector round trips with "
        f"all side-condition checks in {elapsed:.1f}s (budget 600s)",
    )


def _all_pairs_sector_graph(inst):
    """Reference for the cone sweep of ``transmission_graph``: every sector
    against every distinguished point, with the exact integer test (radius
    test plus tangent test), as the loop the sweep replaced did it."""
    labels = inst.labels()
    sectors = inst.objects()
    scale = lcm(*(v.denominator for sec in sectors for v in (sec.apex.x, sec.apex.y)))
    points = [(int(sec.apex.x * scale), int(sec.apex.y * scale)) for sec in sectors]
    edges = []
    for i, sec in enumerate(sectors):
        ax, ay = points[i]
        f = lcm(sec.direction.x.denominator, sec.direction.y.denominator)
        ux, uy = int(sec.direction.x * f), int(sec.direction.y * f)
        f = lcm(sec.half_angle.c.denominator, sec.half_angle.s.denominator)
        c, s = int(sec.half_angle.c * f), int(sec.half_angle.s * f)
        rbound = sec.radius_sq.numerator * scale * scale
        rd = sec.radius_sq.denominator
        for j, (x, y) in enumerate(points):
            wx, wy = x - ax, y - ay
            if i == j or (wx * wx + wy * wy) * rd > rbound:
                continue
            dot = ux * wx + uy * wy
            if dot >= 0 and abs(ux * wy - uy * wx) * c <= dot * s:
                edges.append((labels[i], labels[j]))
    return digraph(labels, edges)


def test_sector_sweep_matches_all_pairs_reference(sector_suite):
    instances = sector_suite["instances"]
    assert len(instances) == len(sector_suite["cases"]) == 75
    mismatched = [
        spec
        for spec, inst, (_, rep) in zip(
            product(SECTOR_NS, SECTOR_SEEDS), instances, sector_suite["cases"]
        )
        if rep.graph_from_geometry != _all_pairs_sector_graph(inst)
    ]
    assert not mismatched


def _observation1_per_edge(inst, graph):
    """Reference for ``check_observation1``: the bound tested once per
    mutual couple, as the checker did before it tested once per class.
    The predicate is read from ``realization`` so that a test can replace
    it in both."""
    objs = dict(inst.entries)
    failures = []
    for u, v in graph.edges:
        if (v, u) not in graph.edges or not u < v:
            continue
        x, y = objs[u], objs[v]
        bound = x.half_angle.compose(y.half_angle)
        if not realization.angle_at_most(x.direction, -y.direction, bound):
            failures.append((u, v))
    return sorted(failures)


def _wide_spread_pairwise(inst, graph):
    """Reference for ``is_wide_spread``: every pair of sectors in every
    container set tested for a shared couple partner, and the angle test
    run on the direction pairs of the qualifying pairs, as the checker did
    before it ran the angle test first."""
    sectors = inst.objects()
    index = {label: i for i, label in enumerate(inst.labels())}
    numbers = {}
    direction = [numbers.setdefault(s.direction, len(numbers)) for s in sectors]
    containers = [{d} for d in range(len(sectors))]
    couples = [{i} for i in range(len(sectors))]
    for u, v in graph.edges:
        containers[index[v]].add(index[u])
        if (v, u) in graph.edges:
            couples[index[u]].add(index[v])
    pairs = {
        tuple(sorted((direction[a], direction[b])))
        for inside in containers
        for a, b in combinations(inside, 2)
        if couples[a].isdisjoint(couples[b])
    }
    if not pairs:
        return True
    largest = min(sectors, key=lambda s: s.half_angle.c)
    if not largest.opening_at_most_quarter_pi():
        return False
    two_alpha = largest.half_angle.doubled().doubled()
    vectors = list(numbers)
    return all(
        realization.acute_angle_at_least(vectors[a], vectors[b], two_alpha)
        for a, b in pairs
    )


def test_side_checkers_match_their_per_pair_references(sector_suite, monkeypatch):
    """Observation 1 and wide spread agree with their references on every
    criterion-2 realization: as realized, and with every angle test made
    to fail, so that observation 1 lists every mutual couple and wide
    spread holds only where no pair qualifies."""
    realized = [
        (inst, rep.graph_from_geometry)
        for inst, (_, rep) in zip(sector_suite["instances"], sector_suite["cases"])
    ]

    def verdicts(check):
        return [check(inst, graph) for inst, graph in realized]

    assert verdicts(check_observation1) == verdicts(_observation1_per_edge) == [[]] * 75
    assert verdicts(is_wide_spread) == verdicts(_wide_spread_pairwise) == [True] * 75
    monkeypatch.setattr(realization, "angle_at_most", lambda u, v, bound: False)
    monkeypatch.setattr(realization, "acute_angle_at_least", lambda u, v, bound: False)
    couples = verdicts(check_observation1)
    assert couples == verdicts(_observation1_per_edge)
    assert all(couples)
    spread = verdicts(is_wide_spread)
    assert spread == verdicts(_wide_spread_pairwise)
    assert not any(spread)


def test_criterion_3_count_formulas():
    bad = []
    for n in range(2, 9):
        orders = [[[k] for k in range(1, n + 1) if k != i] for i in range(1, n + 1)]
        from transgraph.arrangement import description

        desc = description(n, orders)
        if reduce_segments(desc).vertex_count != segment_vertex_count(n):
            bad.append(("segments", n))
        if segment_vertex_count(n) != n + n * (n - 1) // 2 + n * (n - 1):
            bad.append(("segments-formula", n))
        if reduce_sectors(desc).vertex_count != sector_vertex_count(n):
            bad.append(("sectors", n))
        if sector_vertex_count(n) != 3 * n + 18 * n * (n - 1):
            bad.append(("sectors-formula", n))
    announce(3, not bad, f"vertex count formulas exact for n in [2,8] (bad: {bad})")


def _random_sector_pair(rng):
    def coord():
        return F(rng.randint(-60, 60), rng.randint(1, 6))

    def direction():
        while True:
            d = vec(rng.randint(-12, 12), rng.randint(-12, 12))
            if d.norm_sq():
                return d

    half = rotation_from_parameter(F(rng.randint(1, 24), 144))  # opening <= pi/4
    ax = vec(coord(), coord())
    x = Sector(ax, direction(), half, F(rng.randint(1, 8000)))
    if rng.random() < 0.5:
        ay = vec(coord(), coord())
    else:
        # aim y back at x's apex so couples actually occur
        ay = ax + rotation_from_parameter(F(rng.randint(-8, 8), 100)).apply(x.direction).scaled(
            F(rng.randint(1, 40), 8)
        )
    if ay == ax:
        ay = ax + vec(1, 0)
    dy = (ax - ay) if rng.random() < 0.7 else direction()
    if dy.norm_sq() == 0:
        dy = vec(1, 0)
    y = Sector(ay, dy, half, F(rng.randint(1, 8000)))
    return x, y


def test_criterion_4_couples_are_near_antipodal():
    rng = random.Random("observation-1-universal")
    couples = violations = 0
    probe_failures = 0
    for _ in range(10000):
        x, y = _random_sector_pair(rng)
        pair = instance([(free("x"), x), (free("y"), y)])
        graph = transmission_graph(pair)
        if len(graph.edges) == 2:  # an edge each way: a mutual couple
            couples += 1
            violations += len(check_observation1(pair, graph))
        # contrapositive probe: perpendicular bisectors can never couple
        perp = Sector(
            y.apex, rotation_from_parameter(1).apply(x.direction), x.half_angle, y.radius_sq
        )
        if len(transmission_graph(instance([(free("x"), x), (free("p"), perp)])).edges) == 2:
            probe_failures += 1
    ok = couples >= 100 and violations == 0 and probe_failures == 0
    announce(
        4,
        ok,
        f"{couples} mutual couples among 10000 random pairs, {violations} bound "
        f"violations, {probe_failures} perpendicular probes misclassified",
    )


def _random_gadget(rng):
    """Sample sectors inside a base cone; the list order is derived from the
    containment hypotheses alone, never from the projections."""
    half = rotation_from_parameter(F(1, 12))
    base = Sector(
        vec(F(rng.randint(-20, 20)), F(rng.randint(-20, 20))),
        vec(rng.randint(1, 8), rng.randint(-3, 3)),
        half,
        F(10**8),
    )
    k = rng.randint(2, 4)
    members = []
    for _ in range(k):
        p = F(rng.randint(2, 400), rng.randint(1, 4))
        lateral = F(rng.randint(-100, 100), 10**4) * p
        apex = (base.apex + base.direction.scaled(p / F(10))
                + vec(-base.direction.y, base.direction.x).scaled(lateral))
        tilt = rotation_from_parameter(F(rng.randint(-100, 100), 10**4))
        members.append(Sector(apex, tilt.apply(-base.direction), half, F(10**10)))
    if not all(base.contains(s.apex) for s in members):
        return None
    if not all(s.contains(base.apex) for s in members):
        return None
    # derive a candidate order purely from who contains whose apex
    scores = [
        sum(t.contains(s.apex) for t in members if t is not s) for s in members
    ]
    order = sorted(range(k), key=lambda i: -scores[i])
    listed = [members[i] for i in order]
    for j in range(k):
        for i in range(j):
            if not listed[j].contains(listed[i].apex):
                return None
    params = [project_param(base.apex, base.direction, s.apex) for s in listed]
    if len(set(params)) != k:
        return None  # generic position only
    return base, listed


def test_criterion_5_ordering_gadget_universal():
    rng = random.Random("ordering-gadget-universal")
    accepted = failures = attempts = 0
    while accepted < 1000 and attempts < 200000:
        attempts += 1
        sample = _random_gadget(rng)
        if sample is None:
            continue
        base, listed = sample
        labels = [free(f"s{k}") for k in range(len(listed))]
        gadget = instance([(free("base"), base), *zip(labels, listed)])
        rep = check_ordering_gadget(gadget, transmission_graph(gadget), free("base"), labels)
        # the sampler accepted by ``Sector.contains``; the graph must agree
        assert rep.hypotheses_hold
        accepted += 1
        if not rep.order_ok:
            failures += 1
    ok = accepted == 1000 and failures == 0
    announce(
        5,
        ok,
        f"{accepted - failures}/1000 gadget instances project in hypothesis order "
        f"({attempts} samples drawn)",
    )


def _projection_order(base, apexes):
    """Reference for the order part of ``check_ordering_gadget``: each
    apex's ``project_param`` onto the base bisector, in ``Fraction``s, and
    the order and ties read from them, as the checker did before it
    ordered on integers."""
    params = [project_param(base.apex, base.direction, p) for p in apexes]
    order_ok = all(q >= p for p, q in zip(params, params[1:]))
    ties = [i for i in range(1, len(params)) if params[i] == params[i - 1]]
    return order_ok, ties, params


RATIONALS = st.fractions(min_value=-60, max_value=60, max_denominator=24)
NARROW = rotation_from_parameter(F(1, 10))


@st.composite
def _gadget_draws(draw):
    """A base sector and member apexes with rational coordinates, some of
    them moved across the bisector from an earlier apex, so that their
    projections tie, and sometimes listed in projection order."""
    direction = draw(st.tuples(RATIONALS, RATIONALS).filter(any))
    base = Sector(vec(draw(RATIONALS), draw(RATIONALS)), vec(*direction), NARROW, F(1))
    across = vec(-base.direction.y, base.direction.x)
    apexes = []
    for _ in range(draw(st.integers(0, 9))):
        if apexes and draw(st.booleans()):
            apexes.append(draw(st.sampled_from(apexes)) + across.scaled(draw(RATIONALS)))
        else:
            apexes.append(vec(draw(RATIONALS), draw(RATIONALS)))
    if draw(st.booleans()):
        apexes.sort(key=lambda p: project_param(base.apex, base.direction, p))
    return base, apexes


@settings(max_examples=300, deadline=None)
@given(_gadget_draws())
def test_gadget_orders_on_integers_as_project_param_does(drawn):
    """The gadget's integer keys give the order, the ties and the exact
    parameters of ``project_param``, with no member apex in the base and
    the hypotheses failing; only the order part is compared."""
    base, apexes = drawn
    labels = [free(f"m{k}") for k in range(len(apexes))]
    members = [Sector(p, -base.direction, NARROW, F(1)) for p in apexes]
    inst = instance([(free("base"), base), *zip(labels, members)])
    rep = check_ordering_gadget(inst, digraph(inst.labels(), []), free("base"), labels)
    assert (rep.order_ok, rep.ties, rep.params) == _projection_order(base, apexes)


def test_gadget_orders_every_realization_as_project_param_does(sector_suite):
    """On every criterion-2 realization, each band's gadget over its
    ``sector_order`` members has the order, ties and parameters of
    ``project_param``."""
    mismatched = []
    for inst, (arr, rep) in zip(sector_suite["instances"], sector_suite["cases"]):
        desc = extract_description(arr)
        objs = dict(inst.entries)
        for i, m in product(range(1, desc.n + 1), (1, 2, 3)):
            members = [make(i, m, k, mp) for k, mp in sector_order(desc, i) for make in (SA, SB)]
            got = check_ordering_gadget(inst, rep.graph_from_geometry, SC(i, m), members)
            expected = _projection_order(objs[SC(i, m)], [objs[s].apex for s in members])
            if (got.order_ok, got.ties, got.params) != expected:
                mismatched.append((desc.n, str(SC(i, m))))
    assert not mismatched


def test_criterion_6_mutation_sensitivity():
    # run each family knockout against geometry at n=3; the two inter-group
    # sector families are empty at n=2, so n=3 is the smallest honest size
    seg_arrs = [random_simple_arrangement(RandomSpec(n=3, seed=s)) for s in range(5)]
    seg_geoms = [(extract_description(a), realize_segments(a).graph) for a in seg_arrs]
    sec_arrs = [random_simple_arrangement(RandomSpec(n=3, seed=s)) for s in range(2)]
    sec_geoms = [(extract_description(a), realize_sectors(a).graph) for a in sec_arrs]

    survivors = []
    for family in SEGMENT_FAMILIES:
        killed = any(
            not graph_diff(reduce_segments(desc, omit=(family,)), geom).empty
            for desc, geom in seg_geoms
        )
        if not killed:
            survivors.append(f"segments:{family}")
    for family in SECTOR_FAMILIES:
        killed = any(
            not graph_diff(reduce_sectors(desc, omit=(family,)), geom).empty
            for desc, geom in sec_geoms
        )
        if not killed:
            survivors.append(f"sectors:{family}")
    total = len(SEGMENT_FAMILIES) + len(SECTOR_FAMILIES)
    announce(
        6,
        not survivors,
        f"{total - len(survivors)}/{total} edge-family mutants killed "
        f"(survivors: {survivors or 'none'})",
    )


def _scaled(arr):
    s = F(10**9, 7)
    return LineArrangement(tuple(Line(l.a, l.b, s * l.c) for l in arr.lines))


def test_criterion_7_exactness_under_scaling(segment_suite, sector_suite):
    t0 = time.monotonic()
    mismatches = 0
    for arr, rep in segment_suite["cases"]:
        scaled = round_trip_segments(_scaled(arr))
        if (
            not scaled.diff.empty
            or scaled.graph_from_geometry != rep.graph_from_geometry
        ):
            mismatches += 1
    for arr, rep in sector_suite["cases"]:
        scaled = round_trip_sectors(_scaled(arr))
        if (
            not scaled.passed
            or scaled.graph_from_geometry != rep.graph_from_geometry
        ):
            mismatches += 1
    elapsed = time.monotonic() - t0
    baseline = segment_suite["elapsed"] + sector_suite["elapsed"]
    ok = mismatches == 0 and elapsed < 4 * baseline
    announce(
        7,
        ok,
        f"325 round trips with coordinates scaled by 1e9/7: {mismatches} graph "
        f"mismatches, {elapsed:.1f}s vs baseline {baseline:.1f}s (limit 4x)",
    )


def test_criterion_8_byte_determinism(tmp_path):
    from transgraph.cli import main

    def run_all(root):
        root.mkdir()
        arr = root / "arr.json"
        desc = root / "desc.json"
        outputs = [arr, desc]
        assert main(["gen", "--n", "3", "--seed", "0", "--out", str(arr)]) == 0
        assert main(["describe", "--in", str(arr), "--out", str(desc)]) == 0
        for mode in ("segments", "sectors"):
            red = root / f"reduce-{mode}.json"
            inst = root / f"inst-{mode}.json"
            graph = root / f"tgraph-{mode}.json"
            rep = root / f"report-{mode}.json"
            assert main(["reduce", "--mode", mode, "--in", str(desc), "--out", str(red)]) == 0
            assert main(["realize", "--mode", mode, "--in", str(arr), "--out", str(inst)]) == 0
            assert main(["tgraph", "--in", str(inst), "--out", str(graph)]) == 0
            assert main(["verify", "--mode", mode, "--in", str(arr), "--report", str(rep)]) == 0
            outputs += [red, inst, graph, rep]
        svg = root / "render.svg"
        dot = root / "graph.dot"
        assert main(["render", "--in", str(root / "inst-segments.json"), "--out", str(svg)]) == 0
        assert main(["export-dot", "--in", str(root / "reduce-segments.json"), "--out", str(dot)]) == 0
        return outputs + [svg, dot]

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    different = [
        a.name
        for a, b in zip(first, second)
        if a.read_bytes() != b.read_bytes()
    ]
    announce(
        8,
        not different,
        f"{len(first)} pipeline outputs byte-identical across runs "
        f"(different: {different or 'none'})",
    )
