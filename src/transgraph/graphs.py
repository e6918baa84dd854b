"""Structured vertex labels and labelled directed graphs.

Labels are interned: ``Label(kind, indices, text)`` returns the one live
object with those fields, held in a weak-valued table, so equal labels are
the same object.  A label therefore compares and hashes by identity, in C,
and graph comparison is plain set equality of labels and label pairs; no
isomorphism search is ever needed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain, repeat, starmap
from operator import add, is_, itemgetter, mul
from typing import Iterable

KIND_ORDER = {"C": 0, "A": 1, "B": 2, "SC": 3, "SA": 4, "SB": 5, "FREE": 6}

# (kind, indices, text) -> the live label with those fields.  An entry
# leaves the table when its label is no longer referenced.
_INTERNED: weakref.WeakValueDictionary[tuple, Label] = weakref.WeakValueDictionary()


class Label:
    """An immutable, interned vertex label.

    Equal fields give the same object, so ``==`` and ``hash`` are the
    identity comparison and hash that ``object`` provides.
    """

    __slots__ = ("kind", "indices", "text", "__weakref__")

    kind: str
    indices: tuple[int, ...]
    text: str

    def __new__(cls, kind: str, indices: tuple[int, ...] = (), text: str = "") -> Label:
        key = (kind, indices, text)
        label = _INTERNED.get(key)
        if label is None:
            label = object.__new__(cls)
            object.__setattr__(label, "kind", kind)
            object.__setattr__(label, "indices", indices)
            object.__setattr__(label, "text", text)
            _INTERNED[key] = label
        return label

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Label(kind={self.kind!r}, indices={self.indices!r}, text={self.text!r})"

    def __reduce__(self):
        # Rebuild from the fields, which returns this process's own object.
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
        # Labels compare by identity, so both tests run in C; the loop only
        # names the first offending edge.
        if any(starmap(is_, self.edges)) or not self.vertices.issuperset(
            chain.from_iterable(self.edges)
        ):
            for u, v in self.edges:
                if u is v:
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
        order, pairs = self.indexed()
        return [(order[i], order[j]) for i, j in pairs]

    def indexed(self) -> tuple[list[Label], list[tuple[int, int]]]:
        """``sorted_vertices()``, and every edge as the ``(tail, head)`` pair
        of its ends' positions in that list, sorted: the order of
        ``sorted_edges()``, from one sort of the vertices.

        ``sort_key`` is total, so positions compare exactly as the key pairs
        would.  Each edge's key, rank(tail) * V + rank(head), is made,
        sorted and split back by ``divmod``, all in C, with no call per
        edge."""
        order = self.sorted_vertices()
        count = len(order)
        rank = dict(zip(order, range(count))).__getitem__
        tails = map(rank, map(itemgetter(0), self.edges))
        heads = map(rank, map(itemgetter(1), self.edges))
        keys = sorted(map(add, map(mul, tails, repeat(count)), heads))
        return order, list(map(divmod, keys, repeat(count)))


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
