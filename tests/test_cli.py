import hashlib
import json
from functools import lru_cache

import pytest
from conftest import version_2_text
from hypothesis import HealthCheck, given, settings, strategies as st

from transgraph import realization
from transgraph.arrangement import LineArrangement, extract_description
from transgraph.cli import main
from transgraph.realization import realize_sectors, realize_segments
from transgraph.reductions import reduce_sectors
from transgraph.serialization import (
    FORMAT_VERSION,
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


def test_gen_rejects_more_lines_than_distinct_slopes(tmp_path, capsys):
    # bound 1 allows the slopes -1, 0 and 1 only.
    assert run("gen", "--n", 4, "--seed", 0, "--bound", 1, "--out", tmp_path / "a.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "a.json").exists()
    assert run("gen", "--n", 3, "--seed", 0, "--bound", 1, "--out", tmp_path / "b.json") == 0
    assert load_document(tmp_path / "b.json").payload.n == 3


@pytest.mark.parametrize("args", [("--n", 51), ("--n", 15, "--bound", 3)], ids=["n51", "n15-bound3"])
def test_gen_rejects_three_lines_per_intercept_at_once(args, tmp_path, capsys):
    # 2*bound + 1 integer intercepts hold at most two lines each without
    # three lines meeting at (0, b), so every draw would fail.
    assert run("gen", *args, "--seed", 0, "--out", tmp_path / "a.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "a.json").exists()


def test_random_spec_rejects_three_lines_per_intercept():
    # The specs at the limit are not sampled: at n = 50 the sampler takes
    # seconds to give up.
    assert RandomSpec(n=50, seed=0).n == 50
    assert RandomSpec(n=14, seed=0, coord_bound=3).n == 14
    with pytest.raises(ValueError, match="intercepts"):
        RandomSpec(n=51, seed=0)
    with pytest.raises(ValueError, match="intercepts"):
        RandomSpec(n=15, seed=0, coord_bound=3)


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
                "formatVersion": FORMAT_VERSION,
                "payload": {"n": 2, "orders": [[[2]], [[2]]]},
            }
        )
    )
    assert run("validate", "--in", desc) == 1


def test_describe_then_validate_an_empty_arrangement(tmp_path, capsys):
    arr, desc = tmp_path / "arr.json", tmp_path / "desc.json"
    save_document(Document("arrangement", LineArrangement(())), arr)
    assert run("describe", "--in", arr, "--out", desc) == 0
    assert run("validate", "--in", desc) == 1
    assert "n must be positive" in capsys.readouterr().out


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


def test_realize_sectors_exits_3_when_the_solved_parameters_fail_verification(
    arr_path, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(realization, "is_equiangular", lambda inst: False)
    out = tmp_path / "inst.json"
    assert run("realize", "--mode", "sectors", "--in", arr_path, "--out", out) == 3
    assert capsys.readouterr().err == "parameter search exhausted: equiangular\n"
    assert not out.exists()


def test_realize_sectors_names_the_missed_pair_when_the_search_is_exhausted(
    arr_path, tmp_path, capsys, monkeypatch
):
    # Twice the solved apex offset is too large for the SB cones of the
    # crossing of lines 1 and 3 to take their SA apexes.
    solve = realization._apex_offset
    monkeypatch.setattr(realization, "_apex_offset", lambda *args: 2 * solve(*args))
    out = tmp_path / "inst.json"
    assert run("realize", "--mode", "sectors", "--in", arr_path, "--out", out) == 3
    pairs = ", ".join(f"SB_3_{m}_1_{mp}->SA_1_{mp}_3_{m}" for m in (1, 2, 3) for mp in (2, 3))
    assert capsys.readouterr().err == f"parameter search exhausted: missing edges: {pairs}\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command",
    [
        ("gen", "--n", 3, "--seed", 0, "--out"),
        ("describe", "--in", "arr", "--out"),
        ("reduce", "--mode", "sectors", "--in", "desc", "--out"),
        ("realize", "--mode", "segments", "--in", "arr", "--out"),
        ("tgraph", "--in", "inst", "--out"),
        ("verify", "--mode", "segments", "--in", "arr", "--report"),
        ("render", "--in", "inst", "--out"),
        ("export-dot", "--in", "graph", "--out"),
    ],
    ids=lambda command: command[0],
)
def test_unwritable_output_is_input_error(command, arr_path, tmp_path, capsys):
    inputs = {"arr": arr_path}
    for name, step in [
        ("desc", ("describe", "--in", arr_path)),
        ("inst", ("realize", "--mode", "segments", "--in", arr_path)),
        ("graph", ("tgraph", "--in", tmp_path / "inst.json")),
    ]:
        inputs[name] = tmp_path / f"{name}.json"
        assert run(*step, "--out", inputs[name]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "out"
    assert run(*[inputs.get(a, a) for a in command], out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.parent.exists()


HUGE = "17" + "0" * 307  # 1.7e308: fits a float, twice it does not


@pytest.mark.parametrize(
    "segments",
    [
        # one coordinate does not fit a float
        [(["1" + "0" * 400, "0"], ["0", "0"])],
        # every coordinate fits, but the span between them does not
        [(["-" + HUGE, "0"], ["-" + HUGE, "1"]), ([HUGE, "0"], [HUGE, "1"])],
    ],
    ids=["coordinate", "span"],
)
def test_render_rejects_a_coordinate_too_large_for_a_float(segments, tmp_path, capsys):
    entries = [
        {"label": {"kind": "FREE", "text": f"s{k}"}, "object": {"type": "segment", "p": p, "q": q}}
        for k, (p, q) in enumerate(segments)
    ]
    body = {"kind": "instance", "formatVersion": FORMAT_VERSION, "payload": {"entries": entries}}
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


def test_an_integer_too_long_for_the_json_reader_is_input_error(tmp_path, capsys):
    """``json.loads`` refuses an integer literal of more than 4,300 digits
    with a plain ``ValueError``, not a ``JSONDecodeError``."""
    index = "7" * 5000
    bad = tmp_path / "graph.json"
    bad.write_text(
        f'{{"formatVersion": {FORMAT_VERSION}, "kind": "graph", "payload": '
        f'{{"vertices": [{{"kind": "C", "indices": [{index}]}}], "out": [[]]}}}}'
    )
    assert run("export-dot", "--in", bad, "--out", tmp_path / "g.dot") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not valid JSON" in err
    assert not (tmp_path / "g.dot").exists()


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
        "formatVersion": FORMAT_VERSION,
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
    """One valid n=2 document of every kind, as JSON text, and the graph
    and the report also as version 2."""
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
    texts = [document_to_json(doc) for doc in docs]
    # The version-2 renderings keep the index-pair edge reader fuzzed.
    old = [version_2_text(text) for doc, text in zip(docs, texts) if doc.kind in ("graph", "report")]
    return tuple(texts + old)


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


DEEP = 5000


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        json.dumps({"kind": "graph", "formatVersion": FORMAT_VERSION, "payload": [[]]}).replace("[[]]", "[" * DEEP + "]" * DEEP),
    ],
    ids=["open brackets", "deep payload"],
)
def test_deeply_nested_document_is_an_input_error(tmp_path, capsys, text):
    doc = tmp_path / "deep.json"
    doc.write_text(text)
    for command in READERS:
        argv = [*command, "--in", doc]
        if command[0] in WRITES_OUT:
            argv += ["--out", tmp_path / "out"]
        if command[0] == "verify":
            argv += ["--report", tmp_path / "report.json"]
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == f"error: {doc}: <document>: not valid JSON: nested too deeply\n"


# --- pinned outputs --------------------------------------------------------

# SHA-256 of every file (and of `verify`'s stdout) that the pipeline below
# writes for `gen --n <n> --seed 0`.  A change to the library that alters any
# CLI output byte shows up here; refresh the digests only for a deliberate
# output change.
PINNED_DIGESTS = {
    3: {
        "arr.json": "7ce71656a1071baf32e06aa641e12fa27e9cfa3d85936a548025cad390ca3848",
        "arr.svg": "5bf9e93659c3e7ba4c3b45347042c675c8009fe048a7453cbebc48cc2ee970b0",
        "desc.json": "618e96b08cfb6fb52b7b7474acbe3380d95c5b89447ae3a7dd6e8de30f6f6f0d",
        "realize-sectors.json": "bdaf3ad8c67428f161cc1f92013e5159c2bfddac008b9c6b0bd95e501af07b12",
        "realize-sectors.svg": "108743c77429344f4943fbd3363febadb5aa01dd2ca456719c405826d0abafc1",
        "realize-segments.json": "34b794bcb0fd17a4c97bd6477a1006b16fb07c1b32e36a9e92669229d96a4510",
        "realize-segments.svg": "7923b078b9ba50087f3f1b6cc5a9036d572f7a5fea0d590be648cbb1f7803cb9",
        "reduce-sectors.dot": "82aab797037706fd1a13354a05287a7240b9f3b9152e5a60604b9f91731c9c8d",
        "reduce-sectors.json": "aec871f1856196f60db945b30bb79c10e14fc8a14f9b36754d9d02d26f3ea953",
        "reduce-segments.dot": "4b211a5eabc25d7a4a2c55e390b86e3d408771c7d8036eca8db06fc3de37dd92",
        "reduce-segments.json": "ce1ce735660418c0ef07349b2c341718c6a29c3876fa7c6c11f07b9de52c6982",
        "report-sectors.json": "e15d8f63f234c00d615e843131563d7306ca1607b9ee14d84531041524984518",
        "report-segments.json": "003e170e354a7dddcc13441895e485ad0dc1a52d60517658cc991d28f3827f58",
        "tgraph-sectors.json": "aec871f1856196f60db945b30bb79c10e14fc8a14f9b36754d9d02d26f3ea953",
        "tgraph-segments.json": "ce1ce735660418c0ef07349b2c341718c6a29c3876fa7c6c11f07b9de52c6982",
        "verify.stdout": "db1b1faafdf5225f0061beb149ed38f7d532a477e6490b88ab273ef89d436d3b",
    },
    4: {
        "arr.json": "458462e931da1cf0a4a2f0644ce6b1845771a6c1130cc334d930e46525cd561b",
        "arr.svg": "a8ddd4376582260acb6b20f97bec97e5f9a6550557bddd19013de00cc9b3c4a1",
        "desc.json": "36b3199f572b1e037af8c72d62d46f6a76c3ba5917f01f1d5eaed64bbbc533fc",
        "realize-sectors.json": "ef521eda0ed7335b0f7d42869c40168c228ee1d9d7997ddbe60e1cdf16238e90",
        "realize-sectors.svg": "6ac443c5ff725256b2d6cfe2a45259d1964b12abea7197c372e36d54935bdf0d",
        "realize-segments.json": "5eb70e8c2ce064b591c6e52f178d248063c2435cf0e780eb1fa048eefbc73170",
        "realize-segments.svg": "de3561744e6e57ccff7197843560ed1b266500d2706c61bb0c97e0b83dd32f8b",
        "reduce-sectors.dot": "e2405de8f4f6e7894bf83cbef9081f6a8ac75b9ff080b51ef2832dd2d90f7e43",
        "reduce-sectors.json": "639451e8cf49293f9b9600f016bd8c78c7ba26acb38fa75edb0839b68839d477",
        "reduce-segments.dot": "29d18ade0a881b3b1726781cc7cef2e5d559748632debb37c5680a1eb5372544",
        "reduce-segments.json": "cd346499b42d0ea0261e73d8f8209953894277c2eb08a49c6a13c8a97ef868d1",
        "report-sectors.json": "d4288db5e96087114ac9016b54ae66039eaca919c34514b0c886fc39b96fbc0d",
        "report-segments.json": "53483ada5df64e39030b603ff5db94812611641cc3db59f842cf3c20169495e6",
        "tgraph-sectors.json": "639451e8cf49293f9b9600f016bd8c78c7ba26acb38fa75edb0839b68839d477",
        "tgraph-segments.json": "cd346499b42d0ea0261e73d8f8209953894277c2eb08a49c6a13c8a97ef868d1",
        "verify.stdout": "db1b1faafdf5225f0061beb149ed38f7d532a477e6490b88ab273ef89d436d3b",
    },
}


def _pipeline_outputs(folder, n):
    """Run the whole CLI on one generated arrangement; file name -> bytes."""

    def call(name, *args):
        # `name` is the file the command writes; it is passed last.
        path = folder / name
        assert run(*args, path) == 0, args
        return path

    arr = call("arr.json", "gen", "--n", n, "--seed", 0, "--out")
    desc = call("desc.json", "describe", "--in", arr, "--out")
    call("arr.svg", "render", "--in", arr, "--out")
    for mode in ("segments", "sectors"):
        graph = call(f"reduce-{mode}.json", "reduce", "--mode", mode, "--in", desc, "--out")
        call(f"reduce-{mode}.dot", "export-dot", "--in", graph, "--out")
        inst = call(f"realize-{mode}.json", "realize", "--mode", mode, "--in", arr, "--out")
        call(f"realize-{mode}.svg", "render", "--in", inst, "--out")
        call(f"tgraph-{mode}.json", "tgraph", "--in", inst, "--out")
        call(f"report-{mode}.json", "verify", "--mode", mode, "--in", arr, "--report")
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


@pytest.mark.parametrize("n", [3, 4])
def test_cli_outputs_match_pinned_digests(n, tmp_path, capsys):
    outputs = _pipeline_outputs(tmp_path, n)
    outputs["verify.stdout"] = capsys.readouterr().out.encode()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == PINNED_DIGESTS[n]
