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
"""

from __future__ import annotations

from itertools import combinations
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
    n = desc.n
    vertices: list[Label] = [C(i) for i in range(1, n + 1)]
    vertices += [A(i, k) for i, k in combinations(range(1, n + 1), 2)]
    vertices += [
        B(i, k) for i in range(1, n + 1) for k in range(1, n + 1) if k != i
    ]
    edges: set[tuple[Label, Label]] = set()
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if k == i:
                continue
            if "CA" not in omit:
                edges.add((C(i), A(i, k)))
            if "CB" not in omit:
                edges.add((C(i), B(i, k)))
            if "BC" not in omit:
                edges.add((B(i, k), C(i)))
    if "BORDER" not in omit:
        for i in range(1, n + 1):
            order = desc.flat_order(i)
            for k in range(len(order)):
                for l in range(k + 1):
                    if l < k:
                        edges.add((B(i, order[k]), B(i, order[l])))
                    edges.add((B(i, order[k]), A(i, order[l])))
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
    n = desc.n
    vertices: list[Label] = [SC(i, m) for i in range(1, n + 1) for m in MS]
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if k == i:
                continue
            for m in MS:
                for mp in MS:
                    vertices.append(SA(i, m, k, mp))
                    vertices.append(SB(i, m, k, mp))
    edges: set[tuple[Label, Label]] = set()

    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if k == i:
                continue
            for m in MS:
                for mp in MS:
                    if "EI" not in omit:
                        edges.add((SC(i, m), SA(i, m, k, mp)))
                        edges.add((SC(i, m), SA(k, mp, i, m)))
                    if "EC" not in omit:
                        edges.add((SA(i, m, k, mp), SC(i, m)))
                        edges.add((SC(i, m), SB(i, m, k, mp)))
                        edges.add((SB(i, m, k, mp), SC(i, m)))

    for i in range(1, n + 1):
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
                                edges.add((SA(i, m, ok, mp), SA(i, m, ol, mpp)))
                                edges.add((SA(i, m, ok, mp), SA(ol, mpp, i, m)))
                                edges.add((SA(i, m, ok, mp), SB(i, m, ol, mpp)))
                                edges.add((SB(i, m, ok, mp), SA(i, m, ol, mpp)))
                                edges.add((SB(i, m, ok, mp), SA(ol, mpp, i, m)))
                            if "EGO_BB" not in omit:
                                edges.add((SB(i, m, ok, mp), SB(i, m, ol, mpp)))
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
                            edges.add((SA(i, m, ok, mp), SA(i, m, ok, mpp)))
                            edges.add((SA(i, m, ok, mp), SA(ok, mpp, i, m)))
                            edges.add((SA(i, m, ok, mp), SB(i, m, ok, mpp)))
                            edges.add((SB(i, m, ok, mp), SB(i, m, ok, mpp)))
                        if before or mpp == mp:
                            edges.add((SB(i, m, ok, mp), SA(i, m, ok, mpp)))
                            edges.add((SB(i, m, ok, mp), SA(ok, mpp, i, m)))
    return digraph(vertices, edges)


def segment_vertex_count(n: int) -> int:
    return n + n * (n - 1) // 2 + n * (n - 1)


def sector_vertex_count(n: int) -> int:
    return 3 * n + 18 * n * (n - 1)
