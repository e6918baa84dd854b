"""Command-line surface for the toolkit.

``COMMANDS`` states each subcommand once, in ``--help`` order: its name,
help text and flags, whose argparse options are in ``FLAGS``, and either
its handler or, for a conversion, the document kinds ``--in`` accepts and
a function from their payload to the text ``_convert`` writes to ``--out``.

Exit codes: 0 success or verification pass, 1 verification failure,
2 input error or unwritable output, 3 the solved sector parameters failed
verification (reported as ``parameter search exhausted: <reason>``).
``main`` maps each library error to its exit code, once for every command.
``gen``, ``render`` and ``export-dot`` map ``ValueError`` or
``OverflowError`` themselves, around the one call that raises it for bad
input: caught in ``main``, it would hide bugs.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from .arrangement import extract_description, validate_description
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

FLAGS = {
    "--n": {"type": int, "required": True},
    "--seed": {"type": int, "required": True},
    "--bound": {"type": int, "default": 12},
    "--mode": {"choices": tuple(MODES), "required": True},
    "--in": {"required": True},
    "--out": {"required": True},
    "--report": {"default": None},
}


def _load(path, *kinds) -> Document:
    try:
        doc = load_document(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except SchemaError as exc:
        raise InputError(f"{path}: {exc}") from None
    if doc.kind not in kinds:
        raise InputError(f"{path}: expected a {' or '.join(kinds)} document, found {doc.kind}")
    return doc


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _json(kind: str, payload) -> str:
    return document_to_json(Document(kind, payload))


def _gen(args) -> int:
    try:
        arr = random_simple_arrangement(RandomSpec(n=args.n, seed=args.seed, coord_bound=args.bound))
    except (ValueError, SamplingExhausted) as exc:
        raise InputError(str(exc)) from None
    _write(args.out, _json("arrangement", arr))
    return EXIT_OK


def _validate(args) -> int:
    report = validate_description(_load(getattr(args, "in"), "description").payload)
    for violation in report.violations:
        print(violation)
    status = "ok" if report.ok else "invalid"
    print(f"{status} ({'simple' if report.simple else 'non-simple'})")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _verify(args) -> int:
    arr = _load(getattr(args, "in"), "arrangement").payload
    report = MODES[args.mode].round_trip(arr)
    if args.report:
        _write(args.report, _json("report", report))
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _render(subject, args) -> str:
    try:
        return render_svg(subject)
    except OverflowError:
        raise InputError(f"{getattr(args, 'in')}: a coordinate is too large to draw") from None


def _export_dot(graph, args) -> str:
    try:
        return export_dot(graph)
    except ValueError as exc:
        raise InputError(f"{getattr(args, 'in')}: {exc}") from None


class Command(NamedTuple):
    name: str
    help: str
    flags: str  # separated by spaces
    kinds: tuple[str, ...] = ()
    convert: Optional[Callable[[Any, argparse.Namespace], str]] = None
    run: Optional[Callable[[argparse.Namespace], int]] = None


COMMANDS = (
    Command("gen", "random simple line arrangement", "--n --seed --bound --out", run=_gen),
    Command("describe", "arrangement -> crossing description", "--in --out", ("arrangement",),
            lambda arr, args: _json("description", extract_description(arr))),
    Command("validate", "check description well-formedness", "--in", run=_validate),
    Command("reduce", "description -> candidate graph", "--mode --in --out", ("description",),
            lambda desc, args: _json("graph", MODES[args.mode].reduce(desc))),
    Command("realize", "arrangement -> object instance", "--mode --in --out", ("arrangement",),
            lambda arr, args: _json("instance", MODES[args.mode].realize(arr).instance)),
    Command("tgraph", "instance -> transmission graph", "--in --out", ("instance",),
            lambda inst, args: _json("graph", transmission_graph(inst))),
    Command("verify", "full round trip on an arrangement", "--mode --in --report", run=_verify),
    Command("render", "instance or arrangement -> SVG", "--in --out", ("instance", "arrangement"),
            _render),
    Command("export-dot", "graph -> DOT", "--in --out", ("graph",), _export_dot),
)


def _convert(command: Command, args) -> int:
    payload = _load(getattr(args, "in"), *command.kinds).payload
    _write(args.out, command.convert(payload, args))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transgraph",
        description="Exact toolkit for generalized transmission graph reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flag in command.flags.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=command.run or partial(_convert, command))
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
