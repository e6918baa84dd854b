import json

import pytest

from transgraph.cli import main
from transgraph.serialization import Document, load_document, save_document


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


def test_missing_input_is_input_error(tmp_path):
    assert run("describe", "--in", tmp_path / "nope.json", "--out", tmp_path / "o") == 2


def test_wrong_kind_is_input_error(arr_path, tmp_path):
    # tgraph expects an instance, not an arrangement
    assert run("tgraph", "--in", arr_path, "--out", tmp_path / "g.json") == 2


def test_corrupt_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run("validate", "--in", bad) == 2
