import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from transgraph.arrangement import extract_description
from transgraph.cli import main
from transgraph.realization import realize_sectors, realize_segments
from transgraph.reductions import reduce_sectors
from transgraph.serialization import (
    Document,
    document_to_json,
    load_document,
    save_document,
)
from transgraph.verification import (
    RandomSpec,
    random_simple_arrangement,
    round_trip_sectors,
)


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def arr_path(tmp_path):
    path = tmp_path / "arr.json"
    assert run("gen", "--n", 3, "--seed", 0, "--out", path) == 0
    return path


def test_gen_writes_arrangement(arr_path):
    doc = load_document(arr_path)
    assert doc.kind == "arrangement"
    assert doc.payload.n == 3


def test_describe_validate(arr_path, tmp_path, capsys):
    desc = tmp_path / "desc.json"
    assert run("describe", "--in", arr_path, "--out", desc) == 0
    assert load_document(desc).kind == "description"
    assert run("validate", "--in", desc) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower() or "pass" in out.lower()


def test_validate_rejects_bad_description(tmp_path):
    desc = tmp_path / "bad.json"
    desc.write_text(
        json.dumps(
            {
                "kind": "description",
                "formatVersion": 1,
                "payload": {"n": 2, "orders": [[[2]], [[2]]]},
            }
        )
    )
    assert run("validate", "--in", desc) == 1


def test_reduce_modes(arr_path, tmp_path):
    desc = tmp_path / "desc.json"
    run("describe", "--in", arr_path, "--out", desc)
    for mode, nv in (("segments", 12), ("sectors", 117)):
        out = tmp_path / f"{mode}.json"
        assert run("reduce", "--mode", mode, "--in", desc, "--out", out) == 0
        assert load_document(out).payload.vertex_count == nv


def test_realize_tgraph_pipeline(arr_path, tmp_path):
    inst = tmp_path / "inst.json"
    graph = tmp_path / "graph.json"
    assert run("realize", "--mode", "segments", "--in", arr_path, "--out", inst) == 0
    assert load_document(inst).kind == "instance"
    assert run("tgraph", "--in", inst, "--out", graph) == 0
    assert load_document(graph).payload.vertex_count == 12


def test_verify_segments(arr_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert (
        run("verify", "--mode", "segments", "--in", arr_path, "--report", report) == 0
    )
    assert "PASS" in capsys.readouterr().out
    assert load_document(report).payload.passed


def test_verify_sectors(arr_path):
    assert run("verify", "--mode", "sectors", "--in", arr_path) == 0


@pytest.mark.parametrize("mode", ["segments", "sectors"])
def test_verify_rejects_nonsimple_arrangement(mode, concurrent_lines, tmp_path, capsys):
    path = tmp_path / "arr.json"
    save_document(Document("arrangement", concurrent_lines), path)
    assert run("verify", "--mode", mode, "--in", path) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_render_and_export(arr_path, tmp_path):
    inst = tmp_path / "inst.json"
    run("realize", "--mode", "segments", "--in", arr_path, "--out", inst)
    svg = tmp_path / "out.svg"
    assert run("render", "--in", inst, "--out", svg) == 0
    assert svg.read_text().startswith("<svg")

    desc = tmp_path / "desc.json"
    graph = tmp_path / "graph.json"
    run("describe", "--in", arr_path, "--out", desc)
    run("reduce", "--mode", "segments", "--in", desc, "--out", graph)
    dot = tmp_path / "out.dot"
    assert run("export-dot", "--in", graph, "--out", dot) == 0
    assert dot.read_text().startswith("digraph")


def test_render_accepts_arrangement(arr_path, tmp_path):
    svg = tmp_path / "arr.svg"
    assert run("render", "--in", arr_path, "--out", svg) == 0


def test_render_rejects_a_coordinate_too_large_for_a_float(tmp_path, capsys):
    segment = {"type": "segment", "p": ["1" + "0" * 400, "0"], "q": ["0", "0"]}
    body = {
        "kind": "instance",
        "formatVersion": 1,
        "payload": {
            "entries": [{"label": {"kind": "FREE", "text": "s"}, "object": segment}]
        },
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(body))
    svg = tmp_path / "out.svg"
    assert run("render", "--in", inst, "--out", svg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not svg.exists()


def test_missing_input_is_input_error(tmp_path):
    assert run("describe", "--in", tmp_path / "nope.json", "--out", tmp_path / "o") == 2


def test_wrong_kind_is_input_error(arr_path, tmp_path):
    # tgraph expects an instance, not an arrangement
    assert run("tgraph", "--in", arr_path, "--out", tmp_path / "g.json") == 2


def test_corrupt_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run("validate", "--in", bad) == 2


def test_tgraph_rejects_sector_half_angle_past_a_quarter_turn(tmp_path, capsys):
    sector = {
        "type": "sector",
        "apex": ["0", "0"],
        "direction": ["1", "0"],
        "half_angle": ["-3/5", "4/5"],
        "radius_sq": "1",
    }
    body = {
        "kind": "instance",
        "formatVersion": 1,
        "payload": {
            "entries": [{"label": {"kind": "FREE", "text": "x"}, "object": sector}]
        },
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(body))
    out = tmp_path / "graph.json"
    assert run("tgraph", "--in", inst, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# --- malformed documents ---------------------------------------------------

# Every subcommand that reads a document, with the options it needs.
READERS = (
    ("describe",),
    ("validate",),
    ("reduce", "--mode", "segments"),
    ("reduce", "--mode", "sectors"),
    ("realize", "--mode", "segments"),
    ("realize", "--mode", "sectors"),
    ("tgraph",),
    ("verify", "--mode", "segments"),
    ("verify", "--mode", "sectors"),
    ("render",),
    ("export-dot",),
)
WRITES_OUT = {"describe", "reduce", "realize", "tgraph", "render", "export-dot"}


@lru_cache(maxsize=None)
def _valid_documents():
    """One valid n=2 document of every kind, as JSON text."""
    arr = random_simple_arrangement(RandomSpec(n=2, seed=0))
    desc = extract_description(arr)
    docs = [
        Document("arrangement", arr),
        Document("description", desc),
        Document("graph", reduce_sectors(desc)),
        Document("instance", realize_segments(arr).instance),
        Document("instance", realize_sectors(arr).instance),
        Document("report", round_trip_sectors(arr)),
    ]
    return tuple(document_to_json(doc) for doc in docs)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(["", "x", "0", "1", "-1", "1/2", "1/0", "FREE", "SC"])
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "type", "n", "text", "indices"]), inner, max_size=2),
    max_leaves=6,
)
# Rationals that keep a document well-formed but move its geometry.
rational_texts = st.sampled_from(["0", "1", "-1", "2", "1/2", "-4/5", "3/5", "4/5", "1/0"])


def _node(body, path):
    for key in path:
        body = body[key]
    return body


@st.composite
def malformed_documents(draw):
    """A valid document with one or two edits: a string leaf replaced by a
    rational, any node replaced by arbitrary JSON, or any node deleted."""
    body = json.loads(draw(st.sampled_from(_valid_documents())))
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(["rational", "replace", "delete"]))
        paths = list(_paths(body))
        if edit == "rational":
            paths = [p for p in paths if isinstance(_node(body, p), str)] or paths
        path = paths[draw(st.integers(0, len(paths) - 1))]
        if not path:
            body = draw(json_values)
        elif edit == "delete":
            del _node(body, path[:-1])[path[-1]]
        else:
            value = draw(rational_texts if edit == "rational" else json_values)
            _node(body, path[:-1])[path[-1]] = value
    return json.dumps(body)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(malformed_documents())
def test_malformed_documents_end_with_a_documented_exit_code(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("fuzz")
    doc = folder / "doc.json"
    doc.write_text(text)
    for command in READERS:
        argv = [*command, "--in", doc]
        if command[0] in WRITES_OUT:
            argv += ["--out", folder / "out"]
        if command[0] == "verify":
            argv += ["--report", folder / "report.json"]
        assert run(*argv) in (0, 1, 2, 3), argv
