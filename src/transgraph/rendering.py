"""Deterministic DOT and SVG output.

Rendering converts to floats at the last moment and formats every
coordinate to 12 significant digits, so repeated runs are byte
identical.  The sector arc is flattened to a 32-chord polyline; this is
presentation only and never feeds back into any predicate.
"""

from __future__ import annotations

import math
import re
from typing import Union

from .arrangement import LineArrangement, containing_slab
from .geometry import Disk, Sector, Segment
from .graphs import LabelledDigraph
from .transmission import Instance

ARC_CHORDS = 32

_DOT_ID = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# DOT reserves these in any case, so a bare one is not a node name.
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


# In a DOT quoted string, a pair of backslashes is kept as two, a backslash
# before a quote escapes it and a backslash before a newline is dropped.  So
# an odd run of backslashes before a quote, a newline or the end of the text
# has no quoted form.
_DOT_UNQUOTABLE = re.compile(r'(?<!\\)(?:\\\\)*\\(?:["\n]|\Z)')
# The only code points a str can hold that UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _dot_name(label) -> str:
    name = str(label)
    if _DOT_ID.match(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    if _DOT_UNQUOTABLE.search(name):
        raise ValueError(
            f"label {name!r} has no DOT quoted form: an odd run of backslashes"
            " ends it or precedes a quote or a newline"
        )
    if _SURROGATE.search(name):
        raise ValueError(f"label {name!r} has no UTF-8 form: it holds a lone surrogate")
    return '"' + name.replace('"', '\\"') + '"'


def export_dot(graph: LabelledDigraph) -> str:
    """The graph in DOT, its vertices and then its edges in sort order.
    Raises ``ValueError`` for a label that no DOT quoted string spells or
    that has no UTF-8 form."""
    lines = ["digraph G {"]
    vertices, rows = graph.rows()
    names = list(map(_dot_name, vertices))
    for name in names:
        lines.append(f"  {name};")
    for tail, row in zip(names, rows):
        lines.extend(f"  {tail} -> {names[h]};" for h in row)
    lines.append("}")
    return "\n".join(lines) + "\n"


STROKE_WIDTH = 0.02
PADDING = 1.0
COLORS = {
    "C": "#1f77b4",
    "A": "#d62728",
    "B": "#2ca02c",
    "SC": "#1f77b4",
    "SA": "#d62728",
    "SB": "#2ca02c",
    "FREE": "#7f7f7f",
    "line": "#444444",
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Canvas:
    def __init__(self) -> None:
        self.elements: list[str] = []
        self.xs: list[float] = []
        self.ys: list[float] = []

    def track(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def line(self, x1, y1, x2, y2, color) -> None:
        self.track(x1, y1)
        self.track(x2, y2)
        self.elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(-y1)}" x2="{_fmt(x2)}" y2="{_fmt(-y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(STROKE_WIDTH)}"/>'
        )

    def marker(self, x, y, color) -> None:
        self.track(x, y)
        r = STROKE_WIDTH * 2.5
        self.elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(r)}" fill="{color}"/>'
        )

    def path(self, points, color) -> None:
        cmds = []
        for i, (x, y) in enumerate(points):
            self.track(x, y)
            cmds.append(f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(-y)}")
        cmds.append("Z")
        self.elements.append(
            f'<path d="{" ".join(cmds)}" fill="{color}" fill-opacity="0.25" '
            f'stroke="{color}" stroke-width="{_fmt(STROKE_WIDTH)}"/>'
        )

    def svg(self) -> str:
        pad = PADDING
        if self.xs:
            x0, x1 = min(self.xs) - pad, max(self.xs) + pad
            y0, y1 = min(self.ys) - pad, max(self.ys) + pad
        else:
            x0, x1, y0, y1 = -pad, pad, -pad, pad
        box = (x0, -y1, x1 - x0, y1 - y0)
        if not all(map(math.isfinite, box)):
            raise OverflowError("the drawing's span does not fit a float")
        view = " ".join(map(_fmt, box))
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{view}" width="640" height="640" '
            'preserveAspectRatio="xMidYMid meet">'
        )
        return "\n".join([head] + self.elements + ["</svg>"]) + "\n"


def _render_segment(canvas: _Canvas, seg: Segment, color: str) -> None:
    canvas.line(float(seg.p.x), float(seg.p.y), float(seg.q.x), float(seg.q.y), color)
    canvas.marker(float(seg.p.x), float(seg.p.y), color)


def _render_sector(canvas: _Canvas, sec: Sector, color: str) -> None:
    ax, ay = float(sec.apex.x), float(sec.apex.y)
    radius = math.sqrt(float(sec.radius_sq))
    mid = math.atan2(float(sec.direction.y), float(sec.direction.x))
    half = math.atan2(float(sec.half_angle.s), float(sec.half_angle.c))
    points = [(ax, ay)]
    for i in range(ARC_CHORDS + 1):
        ang = mid - half + (2 * half) * i / ARC_CHORDS
        points.append((ax + radius * math.cos(ang), ay + radius * math.sin(ang)))
    canvas.path(points, color)
    canvas.marker(ax, ay, color)


def _render_disk(canvas: _Canvas, disk: Disk, color: str) -> None:
    cx, cy = float(disk.center.x), float(disk.center.y)
    r = math.sqrt(float(disk.radius_sq))
    canvas.track(cx - r, cy - r)
    canvas.track(cx + r, cy + r)
    canvas.elements.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" fill="{color}" '
        f'fill-opacity="0.25" stroke="{color}" '
        f'stroke-width="{_fmt(STROKE_WIDTH)}"/>'
    )
    canvas.marker(cx, cy, color)


def render_svg(subject: Union[Instance, LineArrangement]) -> str:
    canvas = _Canvas()
    if isinstance(subject, LineArrangement):
        color = COLORS["line"]
        if subject.n >= 2:
            slab = containing_slab(subject)
            x0, x1 = slab.x_left, slab.x_right
        else:
            x0, x1 = -5, 5
        for i in range(1, subject.n + 1):
            ln = subject.line(i)
            canvas.line(
                float(x0), float(ln.y_at(x0)), float(x1), float(ln.y_at(x1)), color
            )
    else:
        for label, obj in subject.entries:
            color = COLORS.get(label.kind, "#000000")
            if isinstance(obj, Segment):
                _render_segment(canvas, obj, color)
            elif isinstance(obj, Sector):
                _render_sector(canvas, obj, color)
            else:
                _render_disk(canvas, obj, color)
    return canvas.svg()
