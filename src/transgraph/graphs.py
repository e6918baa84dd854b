"""Structured vertex labels and labelled directed graphs.

Labels are canonical, so graph comparison is plain set equality of
labels and label pairs; no isomorphism search is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

KIND_ORDER = {"C": 0, "A": 1, "B": 2, "SC": 3, "SA": 4, "SB": 5, "FREE": 6}


@dataclass(frozen=True, order=False, slots=True)
class Label:
    kind: str
    indices: tuple[int, ...] = ()
    text: str = ""
    # Graphs hash every label many times; a frozen dataclass would rebuild
    # and hash the field tuple on each call.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.kind, self.indices, self.text)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields: a string hash differs between processes.
        return (Label, (self.kind, self.indices, self.text))

    def __str__(self) -> str:
        if self.kind == "FREE":
            return self.text
        return "_".join([self.kind] + [str(i) for i in self.indices])

    def sort_key(self) -> tuple:
        """A total order: known kinds by rank, any other kind by name."""
        return (KIND_ORDER.get(self.kind, 99), self.kind, self.indices, self.text)

    def __lt__(self, other: "Label") -> bool:
        return self.sort_key() < other.sort_key()


def C(i: int) -> Label:
    return Label("C", (i,))


def A(i: int, k: int) -> Label:
    """Unordered pair label: A(i, k) == A(k, i)."""
    if i == k:
        raise ValueError("A label needs two distinct line indices")
    return Label("A", (min(i, k), max(i, k)))


def B(i: int, k: int) -> Label:
    if i == k:
        raise ValueError("B label needs two distinct line indices")
    return Label("B", (i, k))


def SC(i: int, m: int) -> Label:
    return Label("SC", (i, m))


def SA(i: int, m: int, k: int, mp: int) -> Label:
    """Sector a-label: couple partner SC(i, m), related crossing SC(k, mp)."""
    if i == k:
        raise ValueError("SA label needs distinct line indices")
    return Label("SA", (i, m, k, mp))


def SB(i: int, m: int, k: int, mp: int) -> Label:
    if i == k:
        raise ValueError("SB label needs distinct line indices")
    return Label("SB", (i, m, k, mp))


def free(text: str) -> Label:
    return Label("FREE", (), text)


Edge = tuple[Label, Label]


@dataclass(frozen=True)
class LabelledDigraph:
    vertices: frozenset[Label]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"dangling edge {u} -> {v}")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_vertices(self) -> list[Label]:
        return sorted(self.vertices, key=Label.sort_key)

    def sorted_edges(self) -> list[Edge]:
        """Edges by (tail, head) in vertex order; ``sort_key`` is total, so
        ranks compare exactly as the key pairs would."""
        rank = {v: i for i, v in enumerate(self.sorted_vertices())}
        n = len(rank)
        return sorted(self.edges, key=lambda e: rank[e[0]] * n + rank[e[1]])


def digraph(vertices: Iterable[Label], edges: Iterable[Edge]) -> LabelledDigraph:
    return LabelledDigraph(frozenset(vertices), frozenset(edges))


@dataclass
class DiffReport:
    missing_vertices: list[Label] = field(default_factory=list)
    extra_vertices: list[Label] = field(default_factory=list)
    missing_edges: list[Edge] = field(default_factory=list)
    extra_edges: list[Edge] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (
            self.missing_vertices
            or self.extra_vertices
            or self.missing_edges
            or self.extra_edges
        )

    def summary(self) -> str:
        if self.empty:
            return "graphs identical"
        parts = []
        for name, items in [
            ("missing vertices", self.missing_vertices),
            ("extra vertices", self.extra_vertices),
            ("missing edges", self.missing_edges),
            ("extra edges", self.extra_edges),
        ]:
            if items:
                shown = ", ".join(
                    str(x) if isinstance(x, Label) else f"{x[0]}->{x[1]}"
                    for x in items[:8]
                )
                more = "" if len(items) <= 8 else f" (+{len(items) - 8} more)"
                parts.append(f"{name}: {shown}{more}")
        return "; ".join(parts)


def graph_diff(g: LabelledDigraph, h: LabelledDigraph) -> DiffReport:
    """Label-exact difference: what g has that h lacks, and vice versa."""
    ekey = lambda e: (e[0].sort_key(), e[1].sort_key())
    return DiffReport(
        missing_vertices=sorted(g.vertices - h.vertices, key=Label.sort_key),
        extra_vertices=sorted(h.vertices - g.vertices, key=Label.sort_key),
        missing_edges=sorted(g.edges - h.edges, key=ekey),
        extra_edges=sorted(h.edges - g.edges, key=ekey),
    )
