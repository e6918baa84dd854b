"""Lossless JSON documents for every pipeline value.

Rationals travel as exact "num/den" strings and labels as structured
objects.  A graph is its sorted ``vertices`` list and ``out``, one row per
entry of that list: row t lists, in ascending order, the positions in
``vertices`` of the heads of vertex t's out-edges, and a sink's row is
``[]``.  Only a report's diff names edges by label pairs, since they may
name a vertex one graph lacks.  Serialization is deterministic (sorted
keys, canonical vertex and head order), so byte-identical goldens are
stable.

The text is compact, one line of ``json.dumps(body, sort_keys=True,
separators=(",", ":"))``: without an indent, CPython writes it with its C
encoder.  A body is a fresh tree that shares no container, so the encoder's
cycle check is skipped.  ``python -m json.tool`` pretty-prints a document.
The reader takes any JSON layout, so indented documents read as well.

The rows are a graph's sorted edge codes split by tail
(``LabelledDigraph.rows``), so writing and reading a graph makes one list
per vertex, not one per edge.  The reader checks a graph's vertex list and
its rows once per document, by type sets and a ``min`` and ``max`` over the
flattened entries, builds the labels and the codes in C, and lets the graph
find a self-loop.  The loop over the labels or the rows runs only when a
check fails, to name the first offender.

The reader takes only ``FORMAT_VERSION``: versions 1 and 2, whose edges
were label pairs and ``[tail, head]`` position pairs, are refused.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Any, Iterable

from .arrangement import Description, LineArrangement
from .geometry import (
    ArrangementObject,
    Disk,
    Line,
    Point,
    Rotation,
    Sector,
    Segment,
    Vec2,
)
from .graphs import DiffReport, Label, LabelledDigraph, coded, digraph, frame
from .transmission import Instance, instance
from .verification import RoundTripReport

FORMAT_VERSION = 3

KINDS = ("arrangement", "description", "instance", "graph", "report")


class SchemaError(Exception):
    """A document payload does not match its kind's schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Document:
    kind: str
    payload: Any

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SchemaError("kind", f"unknown document kind {self.kind!r}")


# --- encoding ---------------------------------------------------------------


def _enc_rat(x: Fraction) -> str:
    return str(x)


def _enc_point(p: Vec2) -> list[str]:
    return [_enc_rat(p.x), _enc_rat(p.y)]


def _enc_rotation(r: Rotation) -> list[str]:
    return [_enc_rat(r.c), _enc_rat(r.s)]


def _enc_label(label: Label) -> dict:
    if label.kind == "FREE":
        return {"kind": "FREE", "text": label.text}
    return {"kind": label.kind, "indices": list(label.indices)}


def _enc_object(obj: ArrangementObject) -> dict:
    if isinstance(obj, Segment):
        return {"type": "segment", "p": _enc_point(obj.p), "q": _enc_point(obj.q)}
    if isinstance(obj, Sector):
        return {
            "type": "sector",
            "apex": _enc_point(obj.apex),
            "direction": _enc_point(obj.direction),
            "half_angle": _enc_rotation(obj.half_angle),
            "radius_sq": _enc_rat(obj.radius_sq),
        }
    if isinstance(obj, Disk):
        return {
            "type": "disk",
            "center": _enc_point(obj.center),
            "radius_sq": _enc_rat(obj.radius_sq),
        }
    raise SchemaError("object", f"unsupported object {obj!r}")


def _enc_graph(g: LabelledDigraph) -> dict:
    vertices, rows = g.rows()
    return {"vertices": list(map(_enc_label, vertices)), "out": rows}


def _enc_payload(kind: str, payload: Any) -> Any:
    if kind == "arrangement":
        return {
            "lines": [
                [_enc_rat(ln.a), _enc_rat(ln.b), _enc_rat(ln.c)]
                for ln in payload.lines
            ]
        }
    if kind == "description":
        return {
            "n": payload.n,
            "orders": [[list(block) for block in row] for row in payload.orders],
        }
    if kind == "instance":
        return {
            "entries": [
                {"label": _enc_label(label), "object": _enc_object(obj)}
                for label, obj in payload.entries
            ]
        }
    if kind == "graph":
        return _enc_graph(payload)
    if kind == "report":
        return {
            "description": _enc_payload("description", payload.description),
            "graph_from_reduction": _enc_graph(payload.graph_from_reduction),
            "graph_from_geometry": _enc_graph(payload.graph_from_geometry),
            "diff": {
                "missing_vertices": [_enc_label(v) for v in payload.diff.missing_vertices],
                "extra_vertices": [_enc_label(v) for v in payload.diff.extra_vertices],
                "missing_edges": [
                    [_enc_label(u), _enc_label(v)] for u, v in payload.diff.missing_edges
                ],
                "extra_edges": [
                    [_enc_label(u), _enc_label(v)] for u, v in payload.diff.extra_edges
                ],
            },
            "checkers": [
                [name, ok, detail] for name, ok, detail in payload.checker_results
            ],
            "parameters": {
                key: _enc_parameter(value)
                for key, value in sorted(payload.parameters.items())
            },
            "passed": payload.passed,
        }
    raise SchemaError("kind", f"unknown document kind {kind!r}")


def _enc_parameter(value: Fraction | tuple[Fraction, ...]) -> str | list[str]:
    if isinstance(value, tuple):
        return list(map(_enc_rat, value))
    return _enc_rat(value)


def document_to_json(doc: Document) -> str:
    body = {
        "kind": doc.kind,
        "formatVersion": FORMAT_VERSION,
        "payload": _enc_payload(doc.kind, doc.payload),
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def save_document(doc: Document, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_to_json(doc))


# --- decoding ---------------------------------------------------------------


def _dec_dict(raw: Any, path: str) -> dict:
    if not isinstance(raw, dict):
        raise SchemaError(path, "expected an object")
    return raw


def _dec_list(raw: Any, path: str) -> list:
    if not isinstance(raw, list):
        raise SchemaError(path, "expected a list")
    return raw


# Exactly what ``_enc_rat`` writes.  ``Fraction`` alone would also take
# decimals and exponents, and expands "1e4000000" into a huge integer.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _dec_rat(raw: Any, path: str) -> Fraction:
    if not isinstance(raw, str):
        raise SchemaError(path, f"expected a rational string, got {raw!r}")
    if not _RATIONAL.fullmatch(raw):
        raise SchemaError(path, f"bad rational {raw!r}: expected p or p/q in decimal digits")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad rational {raw!r}: {exc}") from None


def _dec_point(raw: Any, path: str) -> Vec2:
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(path, "expected [x, y]")
    return Vec2(_dec_rat(raw[0], path + "[0]"), _dec_rat(raw[1], path + "[1]"))


# JSON ``true`` decodes to ``True``, which ``isinstance(x, int)`` accepts.
def _is_int(x: Any) -> bool:
    return type(x) is int


def _all_ints(xs: Iterable[Any]) -> bool:
    return set(map(type, xs)) <= {int}


def _at(path: str, at: tuple[int, ...]) -> str:
    return path + "".join(f"[{i}]" for i in at)


def _dec_label(raw: Any, path: str, *at: int) -> Label:
    """The label object at ``path`` followed by the list positions ``at``;
    the error path is built only to raise."""
    if not isinstance(raw, dict) or not isinstance(raw.get("kind"), str):
        raise SchemaError(_at(path, at), "expected a label object with a kind")
    kind = raw["kind"]
    if kind == "FREE":
        text = raw.get("text")
        if not isinstance(text, str):
            raise SchemaError(_at(path, at), "FREE label text must be a string")
        return Label("FREE", (), text)
    indices = raw.get("indices")
    if not isinstance(indices, list) or not _all_ints(indices):
        raise SchemaError(_at(path, at), "label indices must be a list of integers")
    return Label(kind, tuple(indices))


def _dec_parameter(raw: Any, path: str) -> Fraction | tuple[Fraction, ...]:
    """What ``_enc_parameter`` writes: a rational, or a list of rationals
    that decodes to a tuple."""
    if isinstance(raw, list):
        return tuple(_dec_rat(x, f"{path}[{i}]") for i, x in enumerate(raw))
    return _dec_rat(raw, path)


def _dec_object(raw: Any, path: str) -> ArrangementObject:
    if not isinstance(raw, dict) or "type" not in raw:
        raise SchemaError(path, "expected an object with a type")
    kind = raw["type"]
    try:
        if kind == "segment":
            return Segment(_dec_point(raw["p"], path + ".p"), _dec_point(raw["q"], path + ".q"))
        if kind == "sector":
            ha = raw["half_angle"]
            if not isinstance(ha, list) or len(ha) != 2:
                raise SchemaError(path + ".half_angle", "expected [c, s]")
            return Sector(
                _dec_point(raw["apex"], path + ".apex"),
                _dec_point(raw["direction"], path + ".direction"),
                Rotation(_dec_rat(ha[0], path + ".half_angle[0]"), _dec_rat(ha[1], path + ".half_angle[1]")),
                _dec_rat(raw["radius_sq"], path + ".radius_sq"),
            )
        if kind == "disk":
            return Disk(
                _dec_point(raw["center"], path + ".center"),
                _dec_rat(raw["radius_sq"], path + ".radius_sq"),
            )
    except KeyError as exc:
        raise SchemaError(path, f"missing field {exc}") from None
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None
    raise SchemaError(path, f"unknown object type {kind!r}")


def _dec_labels(raw: dict, key: str, path: str) -> list[Label]:
    path = f"{path}.{key}"
    return [_dec_label(v, path, i) for i, v in enumerate(_dec_list(raw.get(key, []), path))]


def _dec_vertices(raw: dict, path: str) -> list[Label]:
    """A graph's ``vertices``, checked once per document: type sets over the
    entries, their kinds and their flattened indices, then ``map(Label, ...)``
    in C.  A list that holds a FREE label, or fails a check, is decoded one
    label at a time, which names the first bad entry."""
    entries = _dec_list(raw.get("vertices", []), path + ".vertices")
    if set(map(type, entries)) <= {dict}:
        kinds = list(map(dict.get, entries, repeat("kind")))
        if set(map(type, kinds)) <= {str} and "FREE" not in kinds:
            indices = list(map(dict.get, entries, repeat("indices")))
            if set(map(type, indices)) <= {list} and _all_ints(chain.from_iterable(indices)):
                return list(map(Label, kinds, map(tuple, indices)))
    return _dec_labels(raw, "vertices", path)


def _dec_edges(raw: dict, key: str, path: str) -> list[tuple[Label, Label]]:
    path = f"{path}.{key}"
    edges = []
    for i, pair in enumerate(_dec_list(raw.get(key, []), path)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}[{i}]", "expected a label pair")
        edges.append((_dec_label(pair[0], path, i, 0), _dec_label(pair[1], path, i, 1)))
    return edges


def _row_graph(raw: dict, labels: list[Label], path: str) -> LabelledDigraph:
    """A version-3 graph, whose ``out`` holds one row of head positions in
    ``labels`` per entry of ``labels``, checked once per document: a type
    set over the rows, then a type set, a ``min`` and a ``max`` over their
    flattened heads.  A position must be an exact integer, so JSON true and
    1.0 are refused.  The rows are mapped to ranks and codes in C, and the
    graph's own diagonal intersection finds a self-loop: duplicate vertex
    entries decode to one label and so to one rank, and a self-loop is a
    head of the tail's own rank.  Only when a check fails does a loop over
    the rows run, to name the first bad one."""
    rows = _dec_list(raw.get("out", []), path + ".out")
    count = len(labels)
    if len(rows) != count:
        raise SchemaError(path + ".out", f"expected {count} rows, one per vertex entry, got {len(rows)}")
    vertices = frame(labels)
    ranks = list(map(vertices.rank.__getitem__, labels))
    rank_at = ranks.__getitem__
    if set(map(type, rows)) <= {list}:
        heads = list(chain.from_iterable(rows))
        if _all_ints(heads) and (not heads or min(heads) >= 0 and max(heads) < count):
            tails = chain.from_iterable(map(repeat, ranks, map(len, rows)))
            try:
                return digraph(vertices, _codes=coded(tails, map(rank_at, heads), len(vertices.order)))
            except ValueError:
                pass  # a self-loop, named below
    for t, row in enumerate(rows):
        if type(row) is not list or not _all_ints(row) or row and (min(row) < 0 or max(row) >= count):
            raise SchemaError(f"{path}.out[{t}]", f"expected a list of vertex indices, integers in [0, {count})")
        if ranks[t] in map(rank_at, row):
            raise SchemaError(f"{path}.out[{t}]", f"self-loop at {labels[t]}")
    raise ValueError("a row check failed, but every row is well formed")


def _dec_graph(raw: Any, path: str) -> LabelledDigraph:
    raw = _dec_dict(raw, path)
    return _row_graph(raw, _dec_vertices(raw, path), path)


def _dec_payload(kind: str, raw: Any, path: str = "payload") -> Any:
    raw = _dec_dict(raw, path)
    if kind == "arrangement":
        lines = []
        for i, row in enumerate(_dec_list(raw.get("lines", []), path + ".lines")):
            if not isinstance(row, list) or len(row) != 3:
                raise SchemaError(f"{path}.lines[{i}]", "expected [a, b, c]")
            try:
                lines.append(
                    Line(
                        _dec_rat(row[0], f"{path}.lines[{i}][0]"),
                        _dec_rat(row[1], f"{path}.lines[{i}][1]"),
                        _dec_rat(row[2], f"{path}.lines[{i}][2]"),
                    )
                )
            except ValueError as exc:
                raise SchemaError(f"{path}.lines[{i}]", str(exc)) from None
        try:
            return LineArrangement(tuple(lines))
        except Exception as exc:
            raise SchemaError(f"{path}.lines", str(exc)) from None
    if kind == "description":
        n = raw.get("n")
        if not _is_int(n) or n < 0:
            raise SchemaError(f"{path}.n", "expected a non-negative integer")
        orders = _dec_list(raw.get("orders"), f"{path}.orders")
        rows = []
        for i, row in enumerate(orders):
            blocks = []
            for j, block in enumerate(_dec_list(row, f"{path}.orders[{i}]")):
                if not isinstance(block, list) or not _all_ints(block):
                    raise SchemaError(
                        f"{path}.orders[{i}][{j}]", "expected a list of integers"
                    )
                blocks.append(tuple(sorted(block)))
            rows.append(tuple(blocks))
        return Description(n, tuple(rows))
    if kind == "instance":
        entries = []
        for i, entry in enumerate(_dec_list(raw.get("entries", []), path + ".entries")):
            entry = _dec_dict(entry, f"{path}.entries[{i}]")
            entries.append(
                (
                    _dec_label(entry.get("label"), f"{path}.entries[{i}].label"),
                    _dec_object(entry.get("object"), f"{path}.entries[{i}].object"),
                )
            )
        try:
            return instance(entries)
        except Exception as exc:
            raise SchemaError(f"{path}.entries", str(exc)) from None
    if kind == "graph":
        return _dec_graph(raw, path)
    if kind == "report":
        desc = _dec_payload("description", raw.get("description", {}), path + ".description")
        reduction = _dec_graph(raw.get("graph_from_reduction", {}), path + ".graph_from_reduction")
        geometry = _dec_graph(raw.get("graph_from_geometry", {}), path + ".graph_from_geometry")
        diff_path = path + ".diff"
        diff_raw = _dec_dict(raw.get("diff", {}), diff_path)
        diff = DiffReport(
            missing_vertices=_dec_labels(diff_raw, "missing_vertices", diff_path),
            extra_vertices=_dec_labels(diff_raw, "extra_vertices", diff_path),
            missing_edges=_dec_edges(diff_raw, "missing_edges", diff_path),
            extra_edges=_dec_edges(diff_raw, "extra_edges", diff_path),
        )
        checks = _dec_list(raw.get("checkers", []), path + ".checkers")
        if not all(isinstance(c, list) and list(map(type, c)) == [str, bool, str] for c in checks):
            raise SchemaError(path + ".checkers", "expected [name, passed, detail] triples")
        return RoundTripReport(
            description=desc,
            graph_from_reduction=reduction,
            graph_from_geometry=geometry,
            diff=diff,
            checker_results=[tuple(c) for c in checks],
            parameters={
                key: _dec_parameter(value, f"{path}.parameters.{key}")
                for key, value in _dec_dict(raw.get("parameters", {}), path + ".parameters").items()
            },
        )
    raise SchemaError("kind", f"unknown document kind {kind!r}")


def document_from_json(text: str) -> Document:
    try:
        body = json.loads(text)
    except ValueError as exc:
        # ``JSONDecodeError`` is a ``ValueError``; so is the refusal of an
        # integer literal longer than ``sys.get_int_max_str_digits()``.
        raise SchemaError("<document>", f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("<document>", "not valid JSON: nested too deeply") from None
    if not isinstance(body, dict):
        raise SchemaError("<document>", "expected a JSON object")
    kind = body.get("kind")
    if kind not in KINDS:
        raise SchemaError("kind", f"unknown document kind {kind!r}")
    version = body.get("formatVersion")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise SchemaError("formatVersion", f"unsupported version {version!r}")
    return Document(kind, _dec_payload(kind, body.get("payload", {})))


def load_document(path) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("<document>", f"not valid UTF-8: {exc}") from None
    return document_from_json(text)
