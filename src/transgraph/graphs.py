"""Structured vertex labels and labelled directed graphs.

Labels are interned: ``Label(kind, indices, text)`` returns the one object
with those fields, so equal labels are the same object.  The table keeps
every label for the life of the process, so a label built again, in a later
reduction or by a document reader, is a dict hit; it grows only with the
distinct labels a process builds, about 300 B each (5.2 MiB for the 17,952
sector labels of n=32).  A label therefore compares and hashes by identity,
in C, and no isomorphism search is ever needed.  A label computes its sort
key once, when it is interned, and keeps it in a slot, so labels are sorted
through ``attrgetter``, in C.

A graph's vertices are a ``Frame``: their sorted tuple ``order``, its
frozenset and each label's ``rank`` in it, made by ``frame`` with one sort.
A graph keeps its frame's three parts as they are and each edge as the
integer code ``rank(tail) * V + rank(head)`` over that order, V being the
vertex count.  A producer that builds graphs on one vertex set builds the
frame once and hands it to every graph, so graphs on one set may share
``order`` and ``rank``, and ``rank`` must never be mutated.
The cyclic garbage collector does not track ints, so a graph with E edges
holds a few containers, not E tuples.  Equal vertex sets have equal orders,
so graph equality and ``graph_diff`` compare the codes as sets of ints, in
C.  Sorted codes are the edges in ``sorted_edges()`` order; ``rows()``
splits them into one row of heads per tail by ``mod`` and a ``bisect`` at
each multiple of V, and the mutual couples are found by one frozenset
intersection with the reversed codes.  The frozenset of label pairs,
``edges``, is built from the codes only when something reads it.
``frame``, ``coded``, ``coded_run``, ``decoded`` and
``LabelledDigraph.rows`` are this format's one definition: the other
modules take vertex ranks and make and split codes through them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import add, attrgetter, floordiv, itemgetter, mod, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

KIND_ORDER = {"C": 0, "A": 1, "B": 2, "SC": 3, "SA": 4, "SB": 5, "FREE": 6}

# (kind, indices, text) -> the label with those fields, kept for the life of
# the process.
_INTERNED: dict[tuple, Label] = {}


class Label:
    """An immutable, interned vertex label.

    Equal fields give the same object, built once per process and then
    returned from the intern table, so ``==`` and ``hash`` are the identity
    comparison and hash that ``object`` provides.
    """

    __slots__ = ("kind", "indices", "text", "_key")

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
            object.__setattr__(label, "_key", (KIND_ORDER.get(kind, 99), kind, indices, text))
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
        return self._key

    def __lt__(self, other: "Label") -> bool:
        return self._key < other._key


_SORT_KEY = attrgetter("_key")


def sorted_labels(labels: Iterable[Label]) -> list[Label]:
    """The distinct labels of ``labels`` in sort-key order, found in C: the
    vertex order over which a graph's edge codes are taken.  Timsort takes
    an already sorted input in one pass."""
    return list(dict.fromkeys(sorted(labels, key=_SORT_KEY)))


class Frame(NamedTuple):
    """The vertex frame of a graph: ``order``, the distinct vertices in
    sort-key order, ``vertices``, their frozenset, and ``rank``, each
    vertex's position in ``order``, the tail and head numbers of an edge
    code.  Graphs built on one frame share its parts, so ``rank`` must
    never be mutated."""

    order: tuple[Label, ...]
    vertices: frozenset[Label]
    rank: dict[Label, int]


def frame(labels: Iterable[Label]) -> Frame:
    """The frame of a graph on the distinct labels of ``labels``, with
    one sort."""
    order = tuple(sorted_labels(labels))
    return Frame(order, frozenset(order), _ranks(order))


def _ranks(order: Sequence[Label]) -> dict[Label, int]:
    return dict(zip(order, range(len(order))))


def coded(tails: Iterable[int], heads: Iterable[int], vertex_count: int) -> Iterator[int]:
    """The edge codes ``tail * V + head`` of rank pairs, V being
    ``vertex_count``, made in C."""
    return map(add, map(mul, tails, repeat(vertex_count)), heads)


def coded_run(tail: int, heads: Iterable[int], vertex_count: int) -> Iterator[int]:
    """The codes of the edges from rank ``tail`` to each rank of
    ``heads``: ``coded`` with one multiplication in all."""
    return map(add, repeat(tail * vertex_count), heads)


def decoded(codes: Iterable[int], vertex_count: int) -> Iterator[tuple[int, int]]:
    """The ``(tail, head)`` rank pairs of edge codes, split by ``divmod``
    in C."""
    return map(divmod, codes, repeat(vertex_count))


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


@dataclass(frozen=True, init=False, eq=False)
class LabelledDigraph:
    """A directed graph on interned labels.

    ``order``, ``vertices`` and ``rank`` are the parts of the graph's
    ``Frame``, kept as they are, and ``codes`` the frozenset of edge codes
    ``rank(tail) * V + rank(head)`` over ``order``.  ``vertices`` may be a
    ``Frame`` or any iterable of labels, which is sorted once into one.
    ``vertices`` and ``edges`` are the dataclass fields, so
    ``dataclasses.replace(graph, edges=...)`` takes label pairs; ``edges``
    is built from the codes on first read, and then kept.
    """

    vertices: frozenset[Label]
    edges: frozenset[Edge]

    def __init__(
        self,
        vertices: Union[Frame, Iterable[Label]],
        edges: Iterable[Edge] = (),
        *,
        _codes: Optional[Iterable[int]] = None,
    ) -> None:
        if not isinstance(vertices, Frame):
            vertices = frame(vertices)
        order, count = vertices.order, len(vertices.order)
        if _codes is None:
            _codes = _encoded(vertices, edges)
        codes = frozenset(_codes)
        # The self-loop codes t*V + t are V of the V*V codes; look them up.
        loops = codes.intersection(range(0, count * count, count + 1))
        if loops:
            raise ValueError(f"self-loop at {order[min(loops) // count]}")
        object.__setattr__(self, "vertices", vertices.vertices)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rank", vertices.rank)
        object.__setattr__(self, "codes", codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelledDigraph):
            return NotImplemented
        return self.vertices == other.vertices and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.vertices, self.codes))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        count, label = len(self.order), self.order.__getitem__
        tails = map(label, map(floordiv, self.codes, repeat(count)))
        heads = map(label, map(mod, self.codes, repeat(count)))
        return frozenset(zip(tails, heads))

    @cached_property
    def couples(self) -> tuple[int, ...]:
        """The mutual couples, each once, as the sorted codes t*V + h with
        t < h whose reverse h*V + t is a code too: one frozenset
        intersection with the reversed codes, in C."""
        count, codes = len(self.order), self.codes
        counts = repeat(count)
        reverse = coded(map(mod, codes, counts), map(floordiv, codes, counts), count)
        return tuple(code for code in sorted(codes.intersection(reverse)) if code % count > code // count)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.codes)

    def sorted_vertices(self) -> list[Label]:
        return list(self.order)

    def sorted_edges(self) -> list[Edge]:
        order, rows = self.rows()
        return [(tail, order[h]) for tail, row in zip(order, rows) for h in row]

    def rows(self) -> tuple[list[Label], list[list[int]]]:
        """``sorted_vertices()``, and for each of its entries the ascending
        positions of the heads of that vertex's out-edges (``[]`` for a
        sink): the graph's one sorted view of its codes, so read row by row
        it lists the edges in ``sorted_edges()`` order.  The heads of the
        sorted codes are split off by ``mod``, and row t's bounds are found
        by a ``bisect`` at t * V and (t + 1) * V, all in C."""
        count, codes = len(self.order), sorted(self.codes)
        heads = list(map(mod, codes, repeat(count)))
        bounds = list(map(bisect_left, repeat(codes), range(0, (count + 1) * count, count or 1)))
        return list(self.order), list(map(heads.__getitem__, map(slice, bounds, bounds[1:])))

    def _codes_over(self, order: list[Label]) -> frozenset[int]:
        """The codes of this graph's edges over ``order``, a sorted list that
        holds every vertex of this graph, as if it were its vertex order."""
        count = len(self.order)
        position = list(map(_ranks(order).__getitem__, self.order)).__getitem__
        tails = map(position, map(floordiv, self.codes, repeat(count)))
        heads = map(position, map(mod, self.codes, repeat(count)))
        return frozenset(coded(tails, heads, len(order)))


def _encoded(vertices: Frame, edges: Iterable[Edge]) -> frozenset[int]:
    """Label pairs as codes over the frame ``vertices``.  Labels compare by
    identity, so the endpoint test runs in C; the loop only names the first
    dangling edge."""
    edges = list(edges)
    if not vertices.vertices.issuperset(chain.from_iterable(edges)):
        for u, v in edges:
            if u not in vertices.vertices or v not in vertices.vertices:
                raise ValueError(f"dangling edge {u} -> {v}")
    rank = vertices.rank.__getitem__
    tails = map(rank, map(itemgetter(0), edges))
    heads = map(rank, map(itemgetter(1), edges))
    return frozenset(coded(tails, heads, len(vertices.order)))


def digraph(
    vertices: Union[Frame, Iterable[Label]],
    edges: Iterable[Edge] = (),
    *,
    _codes: Optional[Iterable[int]] = None,
) -> LabelledDigraph:
    """The graph on ``vertices``, a ``Frame`` or labels to sort into one,
    with ``edges``, label pairs, each checked for a dangling end and a
    self-loop.

    The package's own producers pass a ``Frame`` and ``_codes`` instead:
    codes rank(tail) * V + rank(head) over the frame, made by ``coded``
    from ranks they looked up in it, so every code is in range and only
    self-loops are checked.  Range-checking them here would take a ``min``
    and a ``max`` over every edge of every graph."""
    return LabelledDigraph(vertices, edges, _codes=_codes)


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
    """Label-exact difference: what g has that h lacks, and vice versa.

    The edges are compared as codes over one vertex order, g's own when the
    vertex sets are equal, and only the edges that differ become label
    pairs, in ``sorted_edges()`` order."""
    if g.vertices == h.vertices:
        order, g_codes, h_codes = g.order, g.codes, h.codes
    else:
        order = sorted_labels(g.vertices | h.vertices)
        g_codes, h_codes = g._codes_over(order), h._codes_over(order)

    def pairs(codes: frozenset[int]) -> list[Edge]:
        return [(order[t], order[u]) for t, u in decoded(sorted(codes), len(order))]

    return DiffReport(
        missing_vertices=sorted_labels(g.vertices - h.vertices),
        extra_vertices=sorted_labels(h.vertices - g.vertices),
        missing_edges=pairs(g_codes - h_codes),
        extra_edges=pairs(h_codes - g_codes),
    )
