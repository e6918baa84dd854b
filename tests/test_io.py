import json
import time
from fractions import Fraction

import pytest

from transgraph.arrangement import extract_description
from transgraph.geometry import Disk, Sector, Segment, rotation_from_parameter, vec
from transgraph.graphs import A, C, digraph, free
from transgraph.realization import realize_sectors, realize_segments
from transgraph.reductions import reduce_segments
from transgraph.rendering import export_dot, render_svg
from transgraph.serialization import (
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
    arr = random_simple_arrangement(RandomSpec(n=4, seed=3))
    desc = extract_description(arr)
    assert roundtrip(Document("description", desc)).payload == desc


def test_graph_document_roundtrip():
    g = reduce_segments(
        extract_description(random_simple_arrangement(RandomSpec(n=3, seed=0)))
    )
    assert roundtrip(Document("graph", g)).payload == g


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
    return json.dumps({"kind": "instance", "formatVersion": 1, "payload": payload})


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
        document_from_json('{"kind": "mystery", "formatVersion": 1, "payload": {}}')


def test_bad_version_rejected():
    text = document_to_json(Document("graph", digraph([C(1)], [])))
    body = json.loads(text)
    body["formatVersion"] = 99
    with pytest.raises(SchemaError):
        document_from_json(json.dumps(body))


def test_dangling_edge_rejected():
    text = document_to_json(Document("graph", digraph([C(1), C(2)], [(C(1), C(2))])))
    body = json.loads(text)
    body["payload"]["vertices"] = body["payload"]["vertices"][:1]
    with pytest.raises(SchemaError) as exc:
        document_from_json(json.dumps(body))
    assert "C_" in str(exc.value)


ONE_LINE = {"n": 1, "orders": [[]]}


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("arrangement", []),  # payload not an object
        ("description", {"n": 2, "orders": [7, []]}),  # row not a list
        ("graph", {"vertices": 3, "edges": []}),
        ("graph", {"vertices": [{"kind": ["C"], "indices": [1]}], "edges": []}),
        ("instance", {"entries": 5}),
        ("report", {"description": ONE_LINE, "checkers": [5]}),
        ("report", {"description": ONE_LINE, "diff": {"missing_edges": [7]}}),
    ],
)
def test_malformed_payload_shape_rejected(kind, payload):
    text = json.dumps({"kind": kind, "formatVersion": 1, "payload": payload})
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
