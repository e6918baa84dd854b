"""Line arrangements and their combinatorial crossing descriptions.

An arrangement is a slope-ordered list of pairwise non-parallel,
non-vertical lines.  Its description records, per line, the left-to-right
order in which the other lines cross it, with coincident crossings
grouped into one block.  ``LineArrangement.crossings_by_line()`` solves
and orders every crossing on integers; the other readers read its rows,
so ``is_simple`` and ``extract_description`` compare no ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .geometry import Line


# Per line, (D, [(X, j), ...]): see ``LineArrangement.crossings_by_line``.
CrossingTable = list[tuple[int, list[tuple[int, int]]]]


class ArrangementError(Exception):
    """A set of lines violates the arrangement invariants."""


@dataclass(frozen=True)
class LineArrangement:
    """Non-vertical, pairwise non-parallel lines in ascending slope order.

    Indices are 1-based throughout, matching the description blocks.
    """

    lines: tuple[Line, ...]

    def __post_init__(self) -> None:
        slopes = []
        for ln in self.lines:
            if ln.is_vertical():
                raise ArrangementError(f"vertical line not allowed: {ln}")
            slopes.append(ln.slope())
        for s, t in zip(slopes, slopes[1:]):
            if s >= t:
                raise ArrangementError("lines must be in strictly ascending slope order")

    @property
    def n(self) -> int:
        return len(self.lines)

    def line(self, index: int) -> Line:
        """1-based access."""
        if not 1 <= index <= len(self.lines):
            raise IndexError(f"line index {index} out of range 1..{len(self.lines)}")
        return self.lines[index - 1]

    def crossings_by_line(self) -> CrossingTable:
        """Per line i, ``(D, [(X, j), ...])`` sorted: its crossing with line j
        is at x = X/D, by Cramer's rule on the lines' cached integer
        (a, b, c) (``Line.integers``), and D is the lcm of the row's
        determinants (none is 0, as no lines are parallel).  The table is
        built on each call, not stored on the arrangement: a stored table
        was measured to raise peak resident memory, and the build is cheap.
        """
        lines = [ln.integers for ln in self.lines]
        table = []
        for i, (a1, b1, c1) in enumerate(lines, start=1):
            solved = [
                (c1 * b2 - c2 * b1, a1 * b2 - a2 * b1, j)
                for j, (a2, b2, c2) in enumerate(lines, start=1)
                if j != i
            ]
            D = lcm(*(det for _, det, _ in solved))
            table.append((D, sorted((num * (D // det), j) for num, det, j in solved)))
        return table


def slope_sorted(lines: Iterable[Line]) -> LineArrangement:
    """Reindex lines in strictly ascending slope order."""
    lines = list(lines)
    for ln in lines:
        if ln.is_vertical():
            raise ArrangementError(f"vertical line not allowed: {ln}")
    lines.sort(key=lambda ln: ln.slope())
    for a, b in zip(lines, lines[1:]):
        if a.slope() == b.slope():
            raise ArrangementError(f"duplicate slope {a.slope()}")
    return LineArrangement(tuple(lines))


def is_simple(arr: LineArrangement) -> bool:
    """True iff no three lines pass through one point.

    No line is vertical, so this holds iff no line has two crossings at one
    x: no two adjacent Xs of a ``crossings_by_line()`` row are equal.
    """
    return all(
        x != y for _, row in arr.crossings_by_line() for (x, _), (y, _) in zip(row, row[1:])
    )


@dataclass(frozen=True)
class Slab:
    """A vertical slab strictly containing every intersection point.

    Stands in for the containing disk of the constructions: each line
    crosses both boundaries exactly once, and the top-to-bottom order on
    the left boundary is the slope order.
    """

    x_left: Fraction
    x_right: Fraction

    def __post_init__(self) -> None:
        if self.x_left >= self.x_right:
            raise ValueError("slab needs x_left < x_right")

    @property
    def width(self) -> Fraction:
        return self.x_right - self.x_left

    @classmethod
    def around(cls, table: CrossingTable) -> Slab:
        """Slab with margin at least 1 around the crossings of a table of at
        least 2 lines: each row's first and last entry."""
        xs = [Fraction(row[end][0], D) for D, row in table for end in (0, -1)]
        return cls(min(xs) - 2, max(xs) + 2)


def containing_slab(arr: LineArrangement) -> Slab:
    """Slab with margin at least 1 around all intersection abscissae."""
    if arr.n < 2:
        raise ArrangementError("containing_slab needs at least 2 lines")
    return Slab.around(arr.crossings_by_line())


Block = tuple[int, ...]


@dataclass(frozen=True)
class Description:
    """Per-line crossing orders O^i; each block is a sorted index tuple."""

    n: int
    orders: tuple[tuple[Block, ...], ...]

    def order(self, i: int) -> tuple[Block, ...]:
        """1-based access to O^i."""
        return self.orders[i - 1]

    def flat_order(self, i: int) -> tuple[int, ...]:
        """O^i flattened to a plain index sequence (simple descriptions)."""
        return tuple(k for block in self.order(i) for k in block)


def description(n: int, orders: Sequence[Sequence[Sequence[int]]]) -> Description:
    return Description(
        n,
        tuple(tuple(tuple(sorted(block)) for block in row) for row in orders),
    )


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    simple: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_description(desc: Description) -> ValidationReport:
    """Check partition structure, self-exclusion, and membership symmetry."""
    report = ValidationReport()
    if desc.n < 1:
        report.violations.append("n must be positive")
        return report
    if len(desc.orders) != desc.n:
        report.violations.append(
            f"expected {desc.n} crossing lists, found {len(desc.orders)}"
        )
        return report
    members: list[set[int]] = []
    for i in range(1, desc.n + 1):
        seen: set[int] = set()
        for block in desc.order(i):
            if len(block) != 1:
                report.simple = False
            for k in block:
                if k == i:
                    report.violations.append(f"O^{i} lists line {i} itself")
                elif not 1 <= k <= desc.n:
                    report.violations.append(f"O^{i} lists out-of-range index {k}")
                elif k in seen:
                    report.violations.append(f"O^{i} lists line {k} twice")
                else:
                    seen.add(k)
        missing = set(range(1, desc.n + 1)) - {i} - seen
        for k in sorted(missing):
            report.violations.append(f"O^{i} does not cover line {k}")
        members.append(seen)
    for i in range(1, desc.n + 1):
        for k in sorted(members[i - 1]):
            if 1 <= k <= desc.n and k != i and i not in members[k - 1]:
                report.violations.append(
                    f"line {k} appears in O^{i} but line {i} not in O^{k}"
                )
    return report


def extract_description(arr: LineArrangement) -> Description:
    """Left-to-right crossing order of every line, ties grouped by point.

    Reads the rows of ``crossings_by_line()``, which are sorted by (X, j),
    so equal Xs are adjacent and every block is sorted.
    """
    orders = tuple(
        tuple(tuple(j for _, j in block) for _, block in groupby(row, key=itemgetter(0)))
        for _, row in arr.crossings_by_line()
    )
    return Description(arr.n, orders)
