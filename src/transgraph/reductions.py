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
edges are added as two prefixes of those lists, zipped in C, with no
Python step per edge.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import FrozenSet, Iterable

from .arrangement import Description, validate_description
from .graphs import A, B, C, Label, LabelledDigraph, SA, SB, SC, digraph

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


def reduce_segments(
    desc: Description, *, omit: Iterable[str] = ()
) -> LabelledDigraph:
    """Description -> candidate segment transmission graph.

    ``omit`` drops whole edge families and exists only for mutation
    testing of the verification pipeline.
    """
    _check_simple_input(desc)
    omit = frozenset(omit)
    if not omit <= set(SEGMENT_FAMILIES):
        raise ValueError(f"unknown families: {sorted(omit - set(SEGMENT_FAMILIES))}")
    lines = range(1, desc.n + 1)
    # Each label is built once; an edge end is a dict lookup, not a call.
    c = {i: C(i) for i in lines}
    a = {(i, k): A(i, k) for i, k in combinations(lines, 2)}
    b = {(i, k): B(i, k) for i in lines for k in lines if k != i}
    vertices: list[Label] = [*c.values(), *a.values(), *b.values()]
    a.update({(k, i): label for (i, k), label in a.items()})
    edges: set[tuple[Label, Label]] = set()
    for i, k in b:
        if "CA" not in omit:
            edges.add((c[i], a[i, k]))
        if "CB" not in omit:
            edges.add((c[i], b[i, k]))
        if "BC" not in omit:
            edges.add((b[i, k], c[i]))
    if "BORDER" not in omit:
        for i in lines:
            order = desc.flat_order(i)
            bs = [b[i, k] for k in order]
            as_ = [a[i, k] for k in order]
            for k, b_k in enumerate(bs):
                edges.update(zip(repeat(b_k), bs[:k]))
                edges.update(zip(repeat(b_k), as_[: k + 1]))
    return digraph(vertices, edges)


MS = (1, 2, 3)


def reduce_sectors(
    desc: Description, *, omit: Iterable[str] = ()
) -> LabelledDigraph:
    """Description -> candidate sector transmission graph.

    Edge categories: EI (intersection enforcement), EC (mutual couples),
    EGO (global projection order), ELOI/ELOD (local order within one
    crossing group, ascending or descending), EGO_BB (the amended
    inter-group b -> b family).
    """
    _check_simple_input(desc)
    omit = frozenset(omit)
    if not omit <= set(SECTOR_FAMILIES):
        raise ValueError(f"unknown families: {sorted(omit - set(SECTOR_FAMILIES))}")
    lines = range(1, desc.n + 1)
    # Each label is built once; an edge end is a dict lookup, not a call.
    sc = {(i, m): SC(i, m) for i in lines for m in MS}
    parts = [
        (i, m, k, mp) for i in lines for k in lines if k != i for m in MS for mp in MS
    ]
    sa = {part: SA(*part) for part in parts}
    sb = {part: SB(*part) for part in parts}
    vertices: list[Label] = [*sc.values(), *sa.values(), *sb.values()]
    edges: set[tuple[Label, Label]] = set()

    for i in lines:
        for k in lines:
            if k == i:
                continue
            for m in MS:
                for mp in MS:
                    if "EI" not in omit:
                        edges.add((sc[i, m], sa[i, m, k, mp]))
                        edges.add((sc[i, m], sa[k, mp, i, m]))
                    if "EC" not in omit:
                        edges.add((sa[i, m, k, mp], sc[i, m]))
                        edges.add((sc[i, m], sb[i, m, k, mp]))
                        edges.add((sb[i, m, k, mp], sc[i, m]))

    for i in lines:
        order = desc.flat_order(i)
        for m in MS:
            # Global order between distinct crossing groups (positions k > l).
            for kpos in range(len(order)):
                ok = order[kpos]
                for lpos in range(kpos):
                    ol = order[lpos]
                    for mp in MS:
                        for mpp in MS:
                            if "EGO" not in omit:
                                edges.add((sa[i, m, ok, mp], sa[i, m, ol, mpp]))
                                edges.add((sa[i, m, ok, mp], sa[ol, mpp, i, m]))
                                edges.add((sa[i, m, ok, mp], sb[i, m, ol, mpp]))
                                edges.add((sb[i, m, ok, mp], sa[i, m, ol, mpp]))
                                edges.add((sb[i, m, ok, mp], sa[ol, mpp, i, m]))
                            if "EGO_BB" not in omit:
                                edges.add((sb[i, m, ok, mp], sb[i, m, ol, mpp]))
            # Local order within one crossing group: ascending part indices
            # when the crossing line has the larger slope, else descending.
            for ok in order:
                ascending = ok > i
                family = "ELOI" if ascending else "ELOD"
                if family in omit:
                    continue
                for mp in MS:
                    for mpp in MS:
                        before = mpp < mp if ascending else mpp > mp
                        if before:
                            edges.add((sa[i, m, ok, mp], sa[i, m, ok, mpp]))
                            edges.add((sa[i, m, ok, mp], sa[ok, mpp, i, m]))
                            edges.add((sa[i, m, ok, mp], sb[i, m, ok, mpp]))
                            edges.add((sb[i, m, ok, mp], sb[i, m, ok, mpp]))
                        if before or mpp == mp:
                            edges.add((sb[i, m, ok, mp], sa[i, m, ok, mpp]))
                            edges.add((sb[i, m, ok, mp], sa[ok, mpp, i, m]))
    return digraph(vertices, edges)


def segment_vertex_count(n: int) -> int:
    return n + n * (n - 1) // 2 + n * (n - 1)


def sector_vertex_count(n: int) -> int:
    return 3 * n + 18 * n * (n - 1)
