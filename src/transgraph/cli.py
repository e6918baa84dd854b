"""Command-line surface for the toolkit.

Exit codes: 0 success or verification pass, 1 verification failure,
2 input error or unwritable output, 3 the solved sector parameters failed
verification (reported as ``parameter search exhausted: <reason>``).
``main`` maps each library error to its exit code, once for every command.
``gen`` and ``export-dot`` map ``ValueError`` themselves, around the one
call that raises it for bad input: caught in ``main``, it would hide bugs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from .arrangement import extract_description, validate_description
from .graphs import LabelledDigraph
from .realization import (
    NonSimpleArrangement,
    ParameterSearchExhausted,
    realize_sectors,
    realize_segments,
)
from .reductions import (
    InvalidDescription,
    NonSimpleDescription,
    reduce_sectors,
    reduce_segments,
)
from .rendering import export_dot, render_svg
from .serialization import Document, SchemaError, document_to_json, load_document
from .transmission import transmission_graph
from .verification import (
    RandomSpec,
    SamplingExhausted,
    random_simple_arrangement,
    round_trip_sectors,
    round_trip_segments,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SEARCH_EXHAUSTED = 3


class InputError(Exception):
    pass


class Mode(NamedTuple):
    reduce: Callable
    realize: Callable
    round_trip: Callable


MODES = {
    "segments": Mode(reduce_segments, realize_segments, round_trip_segments),
    "sectors": Mode(reduce_sectors, realize_sectors, round_trip_sectors),
}


def _load(path, *kinds) -> Document:
    try:
        doc = load_document(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except SchemaError as exc:
        raise InputError(f"{path}: {exc}") from None
    if doc.kind not in kinds:
        expected = " or ".join(kinds)
        raise InputError(f"{path}: expected a {expected} document, found {doc.kind}")
    return doc


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _cmd_gen(args) -> int:
    try:
        arr = random_simple_arrangement(
            RandomSpec(n=args.n, seed=args.seed, coord_bound=args.bound)
        )
    except (ValueError, SamplingExhausted) as exc:
        raise InputError(str(exc)) from None
    _write(args.out, document_to_json(Document("arrangement", arr)))
    return EXIT_OK


def _cmd_describe(args) -> int:
    arr = _load(getattr(args, "in"), "arrangement").payload
    _write(args.out, document_to_json(Document("description", extract_description(arr))))
    return EXIT_OK


def _cmd_validate(args) -> int:
    desc = _load(getattr(args, "in"), "description").payload
    report = validate_description(desc)
    for violation in report.violations:
        print(violation)
    status = "ok" if report.ok else "invalid"
    print(f"{status} ({'simple' if report.simple else 'non-simple'})")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_reduce(args) -> int:
    desc = _load(getattr(args, "in"), "description").payload
    _write(args.out, document_to_json(Document("graph", MODES[args.mode].reduce(desc))))
    return EXIT_OK


def _cmd_realize(args) -> int:
    arr = _load(getattr(args, "in"), "arrangement").payload
    realized = MODES[args.mode].realize(arr)
    _write(args.out, document_to_json(Document("instance", realized.instance)))
    return EXIT_OK


def _cmd_tgraph(args) -> int:
    inst = _load(getattr(args, "in"), "instance").payload
    _write(args.out, document_to_json(Document("graph", transmission_graph(inst))))
    return EXIT_OK


def _cmd_verify(args) -> int:
    arr = _load(getattr(args, "in"), "arrangement").payload
    report = MODES[args.mode].round_trip(arr)
    if args.report:
        _write(args.report, document_to_json(Document("report", report)))
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_render(args) -> int:
    path = getattr(args, "in")
    doc = _load(path, "instance", "arrangement")
    try:
        svg = render_svg(doc.payload)
    except OverflowError:
        raise InputError(f"{path}: a coordinate is too large to draw") from None
    _write(args.out, svg)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    path = getattr(args, "in")
    graph: LabelledDigraph = _load(path, "graph").payload
    try:
        dot = export_dot(graph)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    _write(args.out, dot)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transgraph",
        description="Exact toolkit for generalized transmission graph reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="random simple line arrangement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("describe", help="arrangement -> crossing description")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_describe)

    p = sub.add_parser("validate", help="check description well-formedness")
    p.add_argument("--in", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("reduce", help="description -> candidate graph")
    p.add_argument("--mode", choices=tuple(MODES), required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("realize", help="arrangement -> object instance")
    p.add_argument("--mode", choices=tuple(MODES), required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("tgraph", help="instance -> transmission graph")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_tgraph)

    p = sub.add_parser("verify", help="full round trip on an arrangement")
    p.add_argument("--mode", choices=tuple(MODES), required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="instance or arrangement -> SVG")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("export-dot", help="graph -> DOT")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, InvalidDescription, NonSimpleDescription, NonSimpleArrangement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ParameterSearchExhausted as exc:
        print(f"parameter search exhausted: {exc.detail}", file=sys.stderr)
        return EXIT_SEARCH_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
