import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from conftest import version_2_text

import transgraph
from transgraph import graphs, rendering, serialization
from transgraph.arrangement import LineArrangement, extract_description
from transgraph.cli import main
from transgraph.geometry import Disk, Sector, Segment, rotation_from_parameter, vec
from transgraph.graphs import A, C, Label, digraph, free, graph_diff
from transgraph.realization import realize_sectors, realize_segments
from transgraph.reductions import reduce_sectors, reduce_segments
from transgraph.rendering import export_dot, render_svg
from transgraph.serialization import (
    FORMAT_VERSION,
    Document,
    SchemaError,
    document_from_json,
    document_to_json,
    load_document,
    save_document,
)
from transgraph.transmission import instance
from transgraph.verification import (
    RandomSpec,
    random_simple_arrangement,
    round_trip_sectors,
    round_trip_segments,
)

F = Fraction


def roundtrip(doc):
    return document_from_json(document_to_json(doc))


# --- document round trips --------------------------------------------------


def test_arrangement_document_roundtrip():
    arr = random_simple_arrangement(RandomSpec(n=4, seed=3))
    assert roundtrip(Document("arrangement", arr)).payload == arr


def test_description_document_roundtrip():
    for arr in (random_simple_arrangement(RandomSpec(n=4, seed=3)), LineArrangement(())):
        desc = extract_description(arr)
        assert roundtrip(Document("description", desc)).payload == desc


def test_graph_document_roundtrip():
    desc = extract_description(random_simple_arrangement(RandomSpec(n=3, seed=0)))
    for g in (reduce_segments(desc), reduce_sectors(desc)):
        back = roundtrip(Document("graph", g)).payload
        assert back == g
        # Labels are interned: the decoded labels are the reduction's objects.
        assert sorted(map(id, back.vertices)) == sorted(map(id, g.vertices))


def test_instance_document_roundtrip_segments(three_lines):
    inst = realize_segments(three_lines).instance
    assert roundtrip(Document("instance", inst)).payload == inst


def test_instance_document_roundtrip_mixed():
    inst = instance(
        [
            (free("seg"), Segment(vec(0, 0), vec(1, F(1, 3)))),
            (
                free("cone"),
                Sector(vec(2, 2), vec(-1, 0), rotation_from_parameter(F(1, 7)), F(5, 3)),
            ),
            (free("disk"), Disk(vec(-1, F(2, 7)), F(4))),
        ]
    )
    assert roundtrip(Document("instance", inst)).payload == inst


def test_report_document_roundtrip():
    rep = round_trip_segments(random_simple_arrangement(RandomSpec(n=3, seed=2)))
    doc = roundtrip(Document("report", rep))
    assert doc.payload.passed == rep.passed
    assert doc.payload.graph_from_geometry == rep.graph_from_geometry


def test_save_and_load(tmp_path):
    arr = random_simple_arrangement(RandomSpec(n=3, seed=9))
    path = tmp_path / "arr.json"
    save_document(Document("arrangement", arr), path)
    assert load_document(path).payload == arr


# --- schema violations -----------------------------------------------------


def test_serialized_rationals_are_strings():
    arr = random_simple_arrangement(RandomSpec(n=3, seed=1))
    body = json.loads(document_to_json(Document("arrangement", arr)))
    coeff = body["payload"]["lines"][0][0]
    assert isinstance(coeff, str)
    assert Fraction(coeff) == arr.line(1).a


def test_zero_denominator_rejected():
    text = document_to_json(
        Document("arrangement", random_simple_arrangement(RandomSpec(n=2, seed=0)))
    )
    body = json.loads(text)
    body["payload"]["lines"][0][0] = "1/0"
    with pytest.raises(SchemaError):
        document_from_json(json.dumps(body))


def _segment_document(x: str) -> str:
    segment = {"type": "segment", "p": [x, "5"], "q": ["9", "9"]}
    payload = {"entries": [{"label": {"kind": "FREE", "text": "s"}, "object": segment}]}
    return json.dumps({"kind": "instance", "formatVersion": FORMAT_VERSION, "payload": payload})


@pytest.mark.parametrize("raw", ["1e4000000", "1.5", " 3/4", "1_0"])
def test_rational_outside_the_written_form_rejected(raw):
    start = time.perf_counter()
    with pytest.raises(SchemaError):
        document_from_json(_segment_document(raw))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("raw", ["-3/4", "7", "0"])
def test_rational_in_the_written_form_accepted(raw):
    (_, seg), = document_from_json(_segment_document(raw)).payload.entries
    assert seg.p.x == Fraction(raw)


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        Document("mystery", None)
    with pytest.raises(SchemaError):
        document_from_json(json.dumps({"kind": "mystery", "formatVersion": FORMAT_VERSION, "payload": {}}))


def test_bad_version_rejected():
    text = document_to_json(Document("graph", digraph([C(1)], [])))
    body = json.loads(text)
    body["formatVersion"] = 99
    with pytest.raises(SchemaError):
        document_from_json(json.dumps(body))


def test_dangling_edge_rejected():
    """A head position past the last vertex entry names no vertex."""
    payload = {"vertices": [{"kind": "C", "indices": [1]}], "out": [[1]]}
    with pytest.raises(SchemaError) as exc:
        document_from_json(json.dumps({"kind": "graph", "formatVersion": FORMAT_VERSION, "payload": payload}))
    assert exc.value.path == "payload.out[0]"


ONE_LINE = {"n": 1, "orders": [[]]}


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("arrangement", []),  # payload not an object
        ("description", {"n": 2, "orders": [7, []]}),  # row not a list
        ("graph", {"vertices": 3, "out": []}),
        ("graph", {"vertices": [{"kind": ["C"], "indices": [1]}], "out": [[]]}),
        ("instance", {"entries": 5}),
        ("report", {"description": ONE_LINE, "checkers": [5]}),
        ("report", {"description": ONE_LINE, "diff": {"missing_edges": [7]}}),
        ("description", {"n": -1, "orders": []}),
    ],
)
def test_malformed_payload_shape_rejected(kind, payload):
    text = json.dumps({"kind": kind, "formatVersion": FORMAT_VERSION, "payload": payload})
    with pytest.raises(SchemaError):
        document_from_json(text)


def test_garbage_rejected():
    with pytest.raises(SchemaError):
        document_from_json("not json at all")
    with pytest.raises(SchemaError):
        document_from_json("[1, 2, 3]")


def test_json_output_is_deterministic():
    arr = random_simple_arrangement(RandomSpec(n=4, seed=11))
    doc = Document("arrangement", arr)
    assert document_to_json(doc) == document_to_json(doc)


# --- DOT export ------------------------------------------------------------


def test_export_dot_golden():
    g = digraph([C(1), A(1, 2)], [(C(1), A(1, 2))])
    dot = export_dot(g)
    assert dot.splitlines()[0] == "digraph G {"
    assert "  C_1 -> A_1_2;" in dot
    assert dot.rstrip().endswith("}")


def test_export_dot_lists_isolated_vertices():
    g = digraph([C(1), C(2)], [])
    dot = export_dot(g)
    assert "C_1;" in dot and "C_2;" in dot


@pytest.mark.parametrize("name", ["graph", "Node", "EDGE", "diGraph", "SubGraph", "sTRICT"])
def test_export_dot_quotes_keyword_names(name):
    """A FREE label spelled like a DOT keyword, in any case, is written as a
    quoted ID; bare, ``graph;`` or ``graph -> node;`` is a syntax error."""
    g = digraph([free(name), free("x")], [(free(name), free("x"))])
    lines = export_dot(g).splitlines()
    assert f'  "{name}";' in lines
    assert f'  "{name}" -> x;' in lines


# In a DOT quoted string a backslash before a quote escapes it, one before
# a newline is dropped, and a pair of backslashes stays two.
@pytest.mark.parametrize(
    "name", ["a\\", "\\", "a\\\\\\", "a\\\nb", 'a\\"b', "a\ud800"],
    ids=["trailing backslash", "lone backslash", "three trailing backslashes", "backslash-newline", "backslash-quote", "lone surrogate"],
)
def test_export_dot_refuses_a_label_no_quoted_string_spells(tmp_path, capsys, name):
    """Quoted, each of these names would leave the string open or lose a
    character, or, holding a lone surrogate, could not be written as UTF-8,
    so ``export_dot`` raises and ``export-dot`` exits 2 with a one-line
    message and writes nothing."""
    g = digraph([free(name), C(1)], [(C(1), free(name))])
    with pytest.raises(ValueError) as exc:
        export_dot(g)
    path, out = tmp_path / "g.json", tmp_path / "g.dot"
    save_document(Document("graph", g), path)
    assert main(["export-dot", "--in", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {exc.value}\n"
    assert "\n" not in str(exc.value) and not out.exists()


@pytest.mark.parametrize(
    "name, quoted",
    [("a\\\\", '"a\\\\"'), ("a\\b", '"a\\b"'), ('a\\\\"b', '"a\\\\\\"b"'), ("a\nb", '"a\nb"')],
    ids=["two trailing backslashes", "backslash-letter", "two backslashes and a quote", "newline"],
)
def test_export_dot_quotes_a_label_a_quoted_string_spells(name, quoted):
    assert export_dot(digraph([free(name)], [])) == f"digraph G {{\n  {quoted};\n}}\n"


def test_export_dot_deterministic():
    g = reduce_segments(
        extract_description(random_simple_arrangement(RandomSpec(n=4, seed=4)))
    )
    assert export_dot(g) == export_dot(g)


# --- SVG rendering ---------------------------------------------------------


def test_render_segments_svg(three_lines):
    svg = render_svg(realize_segments(three_lines).instance)
    assert svg.startswith("<svg")
    assert svg.count("<line") == 12


def test_render_sectors_svg(three_lines):
    inst = realize_sectors(three_lines).instance
    svg = render_svg(inst)
    # one filled wedge path per sector
    assert svg.count("<path") == len(inst)


def test_render_arrangement_svg(three_lines):
    svg = render_svg(three_lines)
    assert svg.startswith("<svg")
    assert svg.count("<line") == 3


def test_render_deterministic(three_lines):
    inst = realize_segments(three_lines).instance
    assert render_svg(inst) == render_svg(inst)


# --- the writer --------------------------------------------------------------


def dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def indented(text):
    """A document text laid out as version-2 documents were once written."""
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _mismatched_report():
    g = digraph([C(1), C(2), free("x")], [(C(1), C(2)), (free("x"), C(1))])
    h = digraph([C(1), C(2), A(1, 2)], [(C(2), C(1)), (A(1, 2), C(1))])
    rep = round_trip_segments(random_simple_arrangement(RandomSpec(n=3, seed=2)))
    rep.graph_from_reduction, rep.graph_from_geometry, rep.diff = g, h, graph_diff(g, h)
    rep.checker_results = [("wide spread", False, "detail \"quoted\""), ("couple", True, "")]
    assert not rep.diff.empty
    return rep


@lru_cache(maxsize=None)
def _arrangement():
    return random_simple_arrangement(RandomSpec(n=3, seed=5))


def _mixed_instance():
    return instance(
        [
            (free("seg"), Segment(vec(0, 0), vec(1, F(1, 3)))),
            (free("cone"), Sector(vec(2, 2), vec(-1, 0), rotation_from_parameter(F(1, 7)), F(5, 3))),
            (free("disk é"), Disk(vec(-1, F(2, 7)), F(4))),
        ]
    )


# Test id -> a builder of its document.  A document is built when a test
# first asks for it, so a fault in one builder fails only that document's
# tests, not the collection of this module.
_EVERY_KIND_OF_DOCUMENT = {
    "arrangement": lambda: Document("arrangement", _arrangement()),
    "description": lambda: Document("description", extract_description(_arrangement())),
    "instance0": lambda: Document("instance", _mixed_instance()),
    "instance1": lambda: Document("instance", realize_sectors(_arrangement()).instance),
    "graph0": lambda: Document("graph", reduce_sectors(extract_description(_arrangement()))),
    "graph1": lambda: Document("graph", digraph([free("a b"), free('q"'), C(1)], [(free("a b"), free('q"')), (C(1), free("a b"))])),
    "graph without edges": lambda: Document("graph", digraph([C(1), free("x")], [])),
    "empty graph": lambda: Document("graph", digraph([], [])),
    "report": lambda: Document("report", _mismatched_report()),
    # Two 1,188-edge graphs, one depth deeper than a graph document's.
    "sector report": lambda: Document("report", round_trip_sectors(_arrangement())),
}
GRAPHS = ["graph0", "graph1", "graph without edges", "empty graph"]


@lru_cache(maxsize=None)
def _document(name):
    return _EVERY_KIND_OF_DOCUMENT[name]()


@pytest.mark.parametrize("name", _EVERY_KIND_OF_DOCUMENT)
def test_document_text_is_json_dumps_of_its_tree(name):
    doc = _document(name)
    body = {
        "kind": doc.kind,
        "formatVersion": FORMAT_VERSION,
        "payload": serialization._enc_payload(doc.kind, doc.payload),
    }
    assert document_to_json(doc) == dumps(body) + "\n"


@pytest.mark.parametrize("name", _EVERY_KIND_OF_DOCUMENT)
def test_compact_and_indented_texts_decode_to_the_document_written(name):
    """Every document, a report's parameters too, decodes to the value
    written, from its compact text and from its indented layout."""
    doc = _document(name)
    text = document_to_json(doc)
    for layout in (text, indented(text)):
        back = document_from_json(layout)
        assert back.payload == doc.payload
        assert document_to_json(back) == text


@pytest.mark.parametrize("name", GRAPHS)
def test_export_dot_writes_an_indented_graph_as_its_compact_rewrite(tmp_path, name):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(indented(document_to_json(_document(name))))
    new.write_text(document_to_json(load_document(old)))
    for path in (old, new):
        assert main(["export-dot", "--in", str(path), "--out", str(path.with_suffix(".dot"))]) == 0
    assert (tmp_path / "old.dot").read_bytes() == (tmp_path / "new.dot").read_bytes()


@pytest.mark.parametrize(
    "value, message",
    [
        (5, "payload.parameters.tau: expected a rational string, got 5"),
        (["1/2", None], "payload.parameters.tau[1]: expected a rational string, got None"),
        ({"c": "1"}, "payload.parameters.tau: expected a rational string, got {'c': '1'}"),
    ],
    ids=["number", "list holding null", "object"],
)
def test_bad_report_parameter_is_rejected_with_its_path(tmp_path, capsys, value, message):
    body = json.loads(document_to_json(_document("sector report")))
    body["payload"]["parameters"]["tau"] = value
    text = json.dumps(body)
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == message
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["export-dot", "--in", str(path), "--out", str(tmp_path / "g.dot")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# --- older formats are refused -------------------------------------------------


# Version 1 wrote each edge endpoint as a label object.
VERSION_1_GRAPH = {
    "vertices": [{"kind": "C", "indices": [1]}, {"kind": "C", "indices": [2]}],
    "edges": [[{"kind": "C", "indices": [1]}, {"kind": "C", "indices": [2]}]],
}


@pytest.mark.parametrize(
    "version, body",
    [
        (1, {"kind": "graph", "formatVersion": 1, "payload": VERSION_1_GRAPH}),
        (1, {"kind": "description", "formatVersion": 1, "payload": ONE_LINE}),
        (2, "graph0"),
        (2, "report"),
        (2, "description"),
    ],
    ids=["graph", "description", "version 2 graph", "version 2 report", "version 2 description"],
)
def test_version_1_document_is_refused(tmp_path, capsys, version, body):
    """Formats 1 and 2 are refused.  A format-2 document is a format-3 one
    rewritten with ``[tail, head]`` edge pairs, as format 2 wrote them."""
    text = json.dumps(body) if version == 1 else version_2_text(document_to_json(_document(body)))
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == f"formatVersion: unsupported version {version}"
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["export-dot", "--in", str(path), "--out", str(tmp_path / "g.dot")]) == 2
    assert capsys.readouterr().err == f"error: {path}: formatVersion: unsupported version {version}\n"


# Prints the SHA-256 of the document and DOT text of a graph whose vertex
# kinds are all outside the known kinds.
_UNKNOWN_KINDS = """
import hashlib
from transgraph.graphs import Label, digraph
from transgraph.rendering import export_dot
from transgraph.serialization import Document, document_to_json
x, y, z, w, q = (Label(k, (1,)) for k in "XYZWQ")
g = digraph([x, y, z, w, q], [(x, y), (q, w), (z, x), (w, q), (y, z)])
text = document_to_json(Document("graph", g)) + export_dot(g)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_unknown_kinds_write_the_same_bytes_under_any_hash_seed():
    src = str(Path(transgraph.__file__).resolve().parent.parent)
    digests = {
        subprocess.run(
            [sys.executable, "-c", _UNKNOWN_KINDS],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(digests) == 1


# --- booleans are not integers -------------------------------------------------

GRAPH_OF_TWO = {"vertices": [{"kind": "SC", "indices": [1, 2]}, {"kind": "C", "indices": [1]}], "out": [[], []]}


@pytest.mark.parametrize(
    "body",
    [
        {"kind": "graph", "formatVersion": FORMAT_VERSION, "payload": {"vertices": [{"kind": "SC", "indices": [True, 2]}], "out": [[]]}},
        {"kind": "graph", "formatVersion": FORMAT_VERSION, "payload": {**GRAPH_OF_TWO, "out": [[True], []]}},
        {"kind": "description", "formatVersion": FORMAT_VERSION, "payload": {"n": True, "orders": [[]]}},
        {"kind": "description", "formatVersion": FORMAT_VERSION, "payload": {"n": 2, "orders": [[[True]], [[1]]]}},
        {"kind": "graph", "formatVersion": True, "payload": GRAPH_OF_TWO},
        {"kind": "graph", "formatVersion": float(FORMAT_VERSION), "payload": GRAPH_OF_TWO},
    ],
    ids=["label indices", "edge endpoint indices", "description n", "description block", "formatVersion", "formatVersion float"],
)
def test_boolean_or_float_where_an_integer_belongs_is_rejected(tmp_path, capsys, body):
    text = json.dumps(body)
    with pytest.raises(SchemaError):
        document_from_json(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["export-dot", "--in", str(path), "--out", str(tmp_path / "g.dot")]) == 2
    assert "error: " in capsys.readouterr().err


# --- a report's diff names its edges by label pairs -----------------------------

C1 = {"kind": "C", "indices": [1]}
C2 = {"kind": "C", "indices": [2]}
X = {"kind": "FREE", "text": "x"}
# Valid label pairs before a fault.
VALID = [[C1, C2], [C2, C1], [X, C1]]


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[C1, {"kind": ["C"], "indices": [2]}]], "payload.diff.missing_edges[0][1]: expected a label object with a kind"),
        ([[{"kind": "C", "indices": [[2]]}, C1]], "payload.diff.missing_edges[0][0]: label indices must be a list of integers"),
        ([[C2, {"kind": "C", "indices": [1.0]}]], "payload.diff.missing_edges[0][1]: label indices must be a list of integers"),
        # A diff edge may name a vertex that no graph holds, so only the
        # shape of the second pair is at fault.
        ([[C1, {"kind": "C", "indices": [3]}], [C1, 7]], "payload.diff.missing_edges[1][1]: expected a label object with a kind"),
        (VALID + [[C2, {"kind": "C", "indices": [True]}]], "payload.diff.missing_edges[3][1]: label indices must be a list of integers"),
        (VALID + [[{"kind": "C", "indices": [1.0]}, C2]], "payload.diff.missing_edges[3][0]: label indices must be a list of integers"),
        (VALID + [[C2, {"kind": "C", "indices": "1"}]], "payload.diff.missing_edges[3][1]: label indices must be a list of integers"),
        (VALID + [[{"kind": "C"}, C2]], "payload.diff.missing_edges[3][0]: label indices must be a list of integers"),
        (VALID + [[C1, C2, X]], "payload.diff.missing_edges[3]: expected a label pair"),
        # ["x"] has the characters of the text "x" as its items.
        (VALID + [[C2, {"kind": "FREE", "text": ["x"]}]], "payload.diff.missing_edges[3][1]: FREE label text must be a string"),
        ({"3": [C1, C2]}, "payload.diff.missing_edges: expected a list"),
    ],
    ids=[
        "kind is a list",
        "list in indices",
        "float in indices",
        "shape first",
        "true for 1",
        "1.0 for 1",
        "string indices",
        "no indices",
        "three labels",
        "free text not a string",
        "edges not a list",
    ],
)
def test_bad_edge_endpoint_is_rejected_with_its_path(tmp_path, capsys, edges, message):
    payload = {"description": ONE_LINE, "diff": {"missing_edges": edges}}
    text = json.dumps({"kind": "report", "formatVersion": FORMAT_VERSION, "payload": payload})
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == message
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["export-dot", "--in", str(path), "--out", str(tmp_path / "g.dot")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# C_1 twice: both entries decode to one label.
INDEXED_VERTICES = [C1, C2, X, C1]


ROW_RANGE = "expected a list of vertex indices, integers in [0, 4)"


@pytest.mark.parametrize(
    "out, message",
    [
        ([[1], [], []], "payload.out: expected 4 rows, one per vertex entry, got 3"),
        ([[1], [], [], [], []], "payload.out: expected 4 rows, one per vertex entry, got 5"),
        ({"0": [1]}, "payload.out: expected a list"),
        ([[1], 2, [], []], f"payload.out[1]: {ROW_RANGE}"),
        ([[1], {"0": 2}, [], []], f"payload.out[1]: {ROW_RANGE}"),
        ([[1], [], [0, True], []], f"payload.out[2]: {ROW_RANGE}"),
        ([[1.0], [], [], []], f"payload.out[0]: {ROW_RANGE}"),
        ([[1], ["0"], [], []], f"payload.out[1]: {ROW_RANGE}"),
        ([[1], [0], [-1], []], f"payload.out[2]: {ROW_RANGE}"),
        ([[1], [0], [], [4]], f"payload.out[3]: {ROW_RANGE}"),
        ([[1, 2], [0, 1], [], []], "payload.out[1]: self-loop at C_2"),
        ([[1, 2], [0], [], [2, 0]], "payload.out[3]: self-loop at C_1"),
        # The rows are checked per document; the first bad row is named.
        ([[0], [], [4], []], "payload.out[0]: self-loop at C_1"),
        ([[1], [0], [4], [True]], f"payload.out[2]: {ROW_RANGE}"),
        ([[1], [True], [], []], f"payload.out[1]: {ROW_RANGE}"),
        ([[1], [0], [1], 3], f"payload.out[3]: {ROW_RANGE}"),
    ],
    ids=[
        "too few rows",
        "too many rows",
        "not a list",
        "row not a list",
        "row an object",
        "true",
        "1.0",
        "string",
        "negative index",
        "index equal to the vertex count",
        "self-loop",
        "self-loop through a duplicate vertex",
        "self-loop ahead of an index past the end",
        "index past the end ahead of true",
        "true alone",
        "row not a list after valid rows",
    ],
)
def test_bad_out_row_is_rejected_with_its_path(tmp_path, capsys, out, message):
    body = {"kind": "graph", "formatVersion": FORMAT_VERSION, "payload": {"vertices": INDEXED_VERTICES, "out": out}}
    text = json.dumps(body)
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == message
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["export-dot", "--in", str(path), "--out", str(tmp_path / "g.dot")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


LABEL_KIND = "expected a label object with a kind"
LABEL_INDICES = "label indices must be a list of integers"


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([C1, C2, 7, X], f"payload.vertices[2]: {LABEL_KIND}"),
        ([C1, C2, [C1], X], f"payload.vertices[2]: {LABEL_KIND}"),
        ([C1, {"kind": ["C"], "indices": [2]}, X, C2], f"payload.vertices[1]: {LABEL_KIND}"),
        ([C1, C2, {"indices": [3]}, X], f"payload.vertices[2]: {LABEL_KIND}"),
        ([C1, {"kind": "C", "indices": [True]}, C2, X], f"payload.vertices[1]: {LABEL_INDICES}"),
        ([C1, C2, X, {"kind": "C", "indices": [1.0]}], f"payload.vertices[3]: {LABEL_INDICES}"),
        ([C1, C2, {"kind": "C", "indices": "3"}, X], f"payload.vertices[2]: {LABEL_INDICES}"),
        ([C1, C2, {"kind": "C"}, X], f"payload.vertices[2]: {LABEL_INDICES}"),
        ([C1, {"kind": "C", "indices": [[2]]}, C2, X], f"payload.vertices[1]: {LABEL_INDICES}"),
        # Every kind is a string and no label is FREE, so only the bulk
        # index check fails; the loop still names the entry.
        ([C1, C2, {"kind": "SC", "indices": [1, True]}, C1], f"payload.vertices[2]: {LABEL_INDICES}"),
        ([C1, 7, {"kind": "C", "indices": [True]}, X], f"payload.vertices[1]: {LABEL_KIND}"),
        ({"0": C1}, "payload.vertices: expected a list"),
    ],
    ids=[
        "number",
        "list",
        "kind is a list",
        "no kind",
        "true in indices",
        "1.0 in indices",
        "string indices",
        "no indices",
        "list in indices",
        "true in indices, no free label",
        "first bad entry",
        "not a list",
    ],
)
def test_bad_vertex_is_rejected_with_its_path(tmp_path, capsys, vertices, message):
    out = [[]] * len(vertices) if isinstance(vertices, list) else []
    body = {"kind": "graph", "formatVersion": FORMAT_VERSION, "payload": {"vertices": vertices, "out": out}}
    text = json.dumps(body)
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == message
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["export-dot", "--in", str(path), "--out", str(tmp_path / "g.dot")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("version", [FORMAT_VERSION])
def test_a_graph_of_free_and_structured_labels_decodes_to_the_graph_written(version):
    g = digraph(
        [C(1), free("x"), A(1, 2), free("C_1"), C(2)],
        [(C(1), free("x")), (free("x"), A(1, 2)), (free("C_1"), C(1)), (C(2), free("C_1"))],
    )
    text = document_to_json(Document("graph", g))
    assert json.loads(text)["formatVersion"] == version
    back = document_from_json(text).payload
    assert back == g
    assert all(u is v for u, v in zip(back.order, g.order))


MISSING = object()


# A missing text must not default to "": that would decode to free("") and
# re-encode with a text key the document never had.
@pytest.mark.parametrize("text", [5, ["a"], None, MISSING])
def test_free_label_text_must_be_a_string(tmp_path, capsys, text):
    free = {"kind": "FREE"} if text is MISSING else {"kind": "FREE", "text": text}
    body = {"kind": "graph", "formatVersion": FORMAT_VERSION, "payload": {"vertices": [C1, free], "out": [[], []]}}
    with pytest.raises(SchemaError) as exc:
        document_from_json(json.dumps(body))
    assert str(exc.value) == "payload.vertices[1]: FREE label text must be a string"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(body))
    assert main(["export-dot", "--in", str(path), "--out", str(tmp_path / "g.dot")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {exc.value}\n"


def test_graph_document_is_written_and_read_without_a_call_per_edge():
    """Edges are written and read in C-level passes, so the Python-level
    calls for a sector graph document grow with its vertices, not its
    edges."""
    g = reduce_sectors(extract_description(random_simple_arrangement(RandomSpec(n=5, seed=1))))
    assert (g.vertex_count, g.edge_count) == (375, 7200)
    doc = Document("graph", g)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        back = document_from_json(document_to_json(doc))
    finally:
        sys.setprofile(None)
    assert back == doc
    assert calls < g.edge_count


def _lists_in(node):
    if isinstance(node, dict):
        return sum(map(_lists_in, node.values()))
    if isinstance(node, list):
        return 1 + sum(map(_lists_in, node))
    return 0


def test_graph_document_holds_a_list_per_vertex_not_per_edge():
    """A sector graph document's edges take one list per vertex, and the
    document is at most half its version-2 text, whose edges took one list
    each."""
    g = reduce_sectors(extract_description(random_simple_arrangement(RandomSpec(n=5, seed=1))))
    assert (g.vertex_count, g.edge_count) == (375, 7200)
    text = document_to_json(Document("graph", g))
    payload = json.loads(text)["payload"]
    # Each vertex label holds its own list of indices.
    assert _lists_in(payload["vertices"]) == 1 + g.vertex_count
    assert _lists_in(payload["out"]) <= g.vertex_count + 10
    assert len(text) <= len(version_2_text(text)) / 2


@pytest.mark.parametrize(
    "write", [lambda g: document_to_json(Document("graph", g)), export_dot], ids=["json", "dot"]
)
def test_writing_a_graph_sorts_its_vertices_once(write, monkeypatch):
    """A graph sorts its vertices once, when it is built, through the sort
    key each label keeps; a write reuses that order for the vertices and
    the edges.  Every vertex sort runs through ``graphs.sorted_labels``,
    which reads ``graphs._SORT_KEY`` when called, so a counting key sees
    each sort, and the profile sees any ``Label.sort_key`` call."""
    g = reduce_sectors(extract_description(random_simple_arrangement(RandomSpec(n=5, seed=1))))
    expected = write(g)
    keys = calls = 0
    key = graphs._SORT_KEY

    def counting_key(label):
        nonlocal keys
        keys += 1
        return key(label)

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is Label.sort_key.__code__

    monkeypatch.setattr(graphs, "_SORT_KEY", counting_key)
    assert digraph(g.vertices, _codes=g.codes) == g
    assert keys == g.vertex_count == 375
    keys = 0
    sys.setprofile(profile)
    try:
        text = write(g)
    finally:
        sys.setprofile(None)
    assert text == expected
    assert keys == calls == 0


def test_reading_a_graph_sorts_its_vertices_once(sort_key_calls):
    g = reduce_sectors(extract_description(random_simple_arrangement(RandomSpec(n=5, seed=1))))
    text = document_to_json(Document("graph", g))
    before = sort_key_calls()
    assert document_from_json(text).payload == g
    assert sort_key_calls() - before == g.vertex_count == 375


def test_decoding_a_sector_graph_builds_no_label_one_entry_at_a_time():
    """A graph's vertex list is checked once per document and its labels are
    built by one ``map(Label, ...)`` in C, so no vertex goes through
    ``serialization._dec_label``; being interned, they are the reduced
    graph's own label objects."""
    g = reduce_sectors(extract_description(random_simple_arrangement(RandomSpec(n=5, seed=2))))
    assert g.vertex_count == 375
    text = document_to_json(Document("graph", g))
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is serialization._dec_label.__code__

    sys.setprofile(profile)
    try:
        back = document_from_json(text).payload
    finally:
        sys.setprofile(None)
    assert back == g
    assert calls == 0
    assert all(u is v for u, v in zip(back.order, g.order, strict=True))


def test_export_dot_names_each_vertex_once():
    g = reduce_sectors(extract_description(random_simple_arrangement(RandomSpec(n=5, seed=1))))
    expected = export_dot(g)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is rendering._dot_name.__code__

    sys.setprofile(profile)
    try:
        text = export_dot(g)
    finally:
        sys.setprofile(None)
    assert text == expected
    assert calls == g.vertex_count == 375


def test_edge_endpoints_ignore_fields_their_kind_does_not_use():
    """An edge's ends are vertex entries, and an entry's label ignores the
    fields its kind does not use."""
    vertices = [
        {"kind": "C", "indices": [1], "text": "ignored"},
        {"kind": "FREE", "text": "5"},
        {"kind": "FREE", "text": "x", "indices": [9]},
        C1,
    ]
    out = [[1], [], [3], []]
    text = json.dumps({"kind": "graph", "formatVersion": FORMAT_VERSION, "payload": {"vertices": vertices, "out": out}})
    g = document_from_json(text).payload
    assert g == digraph([C(1), free("5"), free("x")], [(C(1), free("5")), (free("x"), C(1))])
    # Equal labels decode to one object.
    by_value = {v: v for v in g.vertices}
    assert all(u is by_value[u] and v is by_value[v] for u, v in g.edges)
