"""Polynomial reductions from crossing descriptions to candidate graphs.

``reduce_segments`` builds the candidate transmission graph over segment
labels C/A/B; ``reduce_sectors`` builds the sector graph over SC/SA/SB
labels from the five edge categories plus one amendment (the inter-group
b -> b family), which the geometric realization necessarily creates and
which the round-trip equality therefore requires.

Both constructions also amend the b -> a family bound to l <= k: a
b-sector sitting between the k-th and (k+1)-th crossing geometrically
covers the first k crossing points, not k - 1.  The realizers follow the
same convention, and the round-trip tests enforce the consistency.

The segment BORDER family has Theta(n^3) edges: B(i, k) points at the B
labels of the crossings before k on line i and at the A labels up to its
own.  Each line's labels are listed once in crossing order, and each B's
edges are added as two prefixes of those lists, with no Python step per
edge.

The sector order families are one prefix relation.  ``sector_order``
lists the parts (k, mp) of a band (i, m) in the order their apexes
project onto the bisector of SC(i, m): crossings in description order,
then part indices ascending or descending.  EGO and EGO_BB point each part
at the parts of every earlier crossing, and ELOI/ELOD at the earlier parts
of its own crossing in that same ascending or descending order, so
together a part's SA points at the SA(i, m, k, mp), partner
SA(k, mp, i, m) and SB(i, m, k, mp) of every earlier part in the list, and
its SB at those and, by the l <= k amendment, at its own SA and partner
SA.  So each band keeps ``run``, those three labels of every part so far,
and each part's edges are prefixes of it.

The vertex set of either graph depends on n alone, so each is built once
per n, by ``_segment_frame`` and ``_sector_frame``: the labels, the
``graphs.Frame`` that sorts them, and the tables from a label's indices to
its rank, kept per n for the life of the process.  Every graph of one n
shares that frame, and a reduction works on ranks only: an edge is the
code rank(tail) * V + rank(head) that ``graphs.digraph`` takes, and the
codes from one tail to a run of heads, or from a run of tails to one head,
are made in C by ``graphs.coded_run`` and ``graphs.coded``.  The families
are disjoint, so the codes go into one list, which ``digraph`` freezes
once.

``omit`` drops whole edge families, for mutation testing of the
verification pipeline: every edge is built, and the omitted ones are then
filtered out by a classifier that names an edge's family from its labels.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, repeat
from typing import Iterable

from .arrangement import Description, validate_description
from .graphs import A, B, C, Frame, Label, LabelledDigraph, SA, SB, SC, coded, coded_run, decoded, digraph, frame

SEGMENT_FAMILIES = ("CA", "CB", "BC", "BORDER")
SECTOR_FAMILIES = ("EI", "EC", "EGO", "ELOI", "ELOD", "EGO_BB")


class InvalidDescription(Exception):
    pass


class NonSimpleDescription(Exception):
    pass


def _check_simple_input(desc: Description) -> None:
    report = validate_description(desc)
    if not report.ok:
        raise InvalidDescription("; ".join(report.violations))
    if not report.simple:
        raise NonSimpleDescription("description has non-singleton blocks")
    if desc.n < 2:
        raise InvalidDescription("need at least 2 lines")


def _omitted(omit: Iterable[str], families: tuple[str, ...]) -> frozenset[str]:
    omit = frozenset(omit)
    if not omit <= set(families):
        raise ValueError(f"unknown families: {sorted(omit - set(families))}")
    return omit


def _framed(*tables: dict) -> tuple:
    """The frame of the labels in ``tables``, and each table with its
    labels replaced by their ranks in that frame."""
    vertices = frame(chain.from_iterable(table.values() for table in tables))
    rank = vertices.rank
    return (vertices, *({key: rank[label] for key, label in table.items()} for table in tables))


def _kept(codes: list[int], vertices: Frame, family, omit: frozenset[str]) -> list[int]:
    """The codes whose edge ``family`` names no omitted family."""
    order = vertices.order
    pairs = decoded(codes, len(order))
    return [e for e, (t, h) in zip(codes, pairs) if family(order[t], order[h]) not in omit]


def _segment_family(tail: Label, head: Label) -> str:
    """CA, CB or BC for an edge at a C hub, else BORDER (B -> A, B -> B)."""
    kinds = tail.kind + head.kind
    return kinds if "C" in kinds else "BORDER"


@lru_cache(maxsize=None)
def _segment_frame(n: int) -> tuple[Frame, dict, dict, dict]:
    """The frame of every segment graph on n lines, and the ranks of C(i),
    A(i, k) under both (i, k) and (k, i), and B(i, k)."""
    lines = range(1, n + 1)
    vertices, c, a, b = _framed(
        {i: C(i) for i in lines},
        {(i, k): A(i, k) for i, k in combinations(lines, 2)},
        {(i, k): B(i, k) for i in lines for k in lines if k != i},
    )
    a.update({(k, i): rank for (i, k), rank in a.items()})
    return vertices, c, a, b


def reduce_segments(
    desc: Description, *, omit: Iterable[str] = ()
) -> LabelledDigraph:
    """Description -> candidate segment transmission graph."""
    _check_simple_input(desc)
    omit = _omitted(omit, SEGMENT_FAMILIES)
    lines = range(1, desc.n + 1)
    # An edge end is its rank in the frame of this n, a dict lookup.
    vertices, c, a, b = _segment_frame(desc.n)
    count = len(vertices.order)
    edges: list[int] = []
    for i in lines:
        order = desc.flat_order(i)
        bs = [b[i, k] for k in order]
        as_ = [a[i, k] for k in order]
        edges += coded_run(c[i], as_ + bs, count)
        edges += coded(bs, repeat(c[i]), count)
        for k, b_k in enumerate(bs):
            edges += coded_run(b_k, bs[:k], count)
            edges += coded_run(b_k, as_[: k + 1], count)
    if omit:
        edges = _kept(edges, vertices, _segment_family, omit)
    return digraph(vertices, _codes=edges)


MS = (1, 2, 3)


def sector_order(desc: Description, i: int) -> list[tuple[int, int]]:
    """The parts (k, mp) of each band of line i in the order their apexes
    project onto the band's bisector: crossings in description order, part
    indices ascending when line k has the larger slope, else descending."""
    return [(k, mp) for k in desc.flat_order(i) for mp in (MS if k > i else MS[::-1])]


def _sector_family(tail: Label, head: Label) -> str:
    if tail.kind == "SC":
        return "EI" if head.kind == "SA" else "EC"
    if head.kind == "SC":
        return "EC"
    # An order edge on band (i, m): the head sits on crossing line h[2] when
    # it is a label of this band, else it is a partner SA(k, mp, i, m).
    i, m, k, _ = tail.indices
    h = head.indices
    if (h[2] if h[:2] == (i, m) else h[0]) == k:
        return "ELOI" if k > i else "ELOD"
    return "EGO_BB" if tail.kind == head.kind == "SB" else "EGO"


@lru_cache(maxsize=None)
def _sector_frame(n: int) -> tuple[Frame, dict, dict, dict]:
    """The frame of every sector graph on n lines, and the ranks of
    SC(i, m), SA(i, m, k, mp) and SB(i, m, k, mp)."""
    lines = range(1, n + 1)
    parts = [(i, m, k, mp) for i in lines for k in lines if k != i for m in MS for mp in MS]
    return _framed(
        {(i, m): SC(i, m) for i in lines for m in MS},
        {part: SA(*part) for part in parts},
        {part: SB(*part) for part in parts},
    )


def reduce_sectors(
    desc: Description, *, omit: Iterable[str] = ()
) -> LabelledDigraph:
    """Description -> candidate sector transmission graph.

    Edge categories: EI (intersection enforcement), EC (mutual couples),
    EGO (global projection order), ELOI/ELOD (local order within one
    crossing group, ascending or descending), EGO_BB (the amended
    inter-group b -> b family).  Each band walks its parts in
    ``sector_order``, and each part's order edges are prefixes of ``run``.
    """
    _check_simple_input(desc)
    omit = _omitted(omit, SECTOR_FAMILIES)
    lines = range(1, desc.n + 1)
    # An edge end is its rank in the frame of this n, a dict lookup.
    vertices, sc, sa, sb = _sector_frame(desc.n)
    count = len(vertices.order)
    edges: list[int] = []
    for i in lines:
        order = sector_order(desc, i)
        for m in MS:
            hub = sc[i, m]
            run: list[int] = []
            for k, mp in order:
                own, partner, b = sa[i, m, k, mp], sa[k, mp, i, m], sb[i, m, k, mp]
                edges += coded_run(own, run, count)
                run += (own, partner)
                edges += coded_run(b, run, count)
                run.append(b)
            # The hub points at every part's labels, and its own SA and SB
            # point back at it.
            edges += coded_run(hub, run, count)
            edges += coded(run[0::3] + run[2::3], repeat(hub), count)
    if omit:
        edges = _kept(edges, vertices, _sector_family, omit)
    return digraph(vertices, _codes=edges)


def segment_vertex_count(n: int) -> int:
    return n + n * (n - 1) // 2 + n * (n - 1)


def sector_vertex_count(n: int) -> int:
    return 3 * n + 18 * n * (n - 1)
