"""Workload definitions: inputs made from a seed, the timed case, its check.

A case is one round trip (``segments``, ``sectors``) or one document cycle
(``documents``) on one arrangement.  The inputs are ``pool`` arrangements of
every size; round r of a run takes the r-th arrangement of every size,
cycling through the pool.

The timed part of a case calls the library through module attributes
(``verification.round_trip_segments``) so that the tracer, which rebinds
those attributes, sees every call.  The checks use the names bound below at
import time, before any tracer is installed, so checking is never traced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from transgraph import arrangement, reductions, serialization, verification
from transgraph.arrangement import LineArrangement
from transgraph.serialization import Document, document_to_json
from transgraph.verification import RandomSpec, random_simple_arrangement

# Seed offsets: arrangement j of size n for workload seed s uses the library
# seed s * SEED_STRIDE + j, so the inputs of two workload seeds never overlap.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]
    # Distinct arrangements per size.
    pool: int
    run: Callable[[LineArrangement], Any]
    # Returns None when the output is correct, else the reason it is not.
    check: Callable[[Any], Optional[str]]


def _round_trip_check(report) -> Optional[str]:
    if report.passed and report.diff.empty:
        return None
    failed = [name for name, ok, _ in report.checker_results if not ok]
    return f"round trip failed: {report.diff.summary()}; checkers failed: {failed}"


def _run_segments(arr: LineArrangement):
    return verification.round_trip_segments(arr)


def _run_sectors(arr: LineArrangement):
    return verification.round_trip_sectors(arr)


def _run_documents(arr: LineArrangement):
    desc = arrangement.extract_description(arr)
    doc = Document("graph", reductions.reduce_sectors(desc))
    text = serialization.document_to_json(doc)
    return doc, text, serialization.document_from_json(text)


def _document_check(out) -> Optional[str]:
    doc, text, back = out
    if back != doc:
        return "decoded document differs from the encoded one"
    if document_to_json(back) != text:
        return "re-encoding the decoded document changed its bytes"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("segments", (6, 8, 10, 12, 16), 16, _run_segments, _round_trip_check),
        Workload("sectors", (3,), 16, _run_sectors, _round_trip_check),
        Workload("documents", (2, 3, 5), 4, _run_documents, _document_check),
    )
}


def make_inputs(workload: Workload, seed: int) -> list[tuple[int, LineArrangement]]:
    """(size, arrangement) pairs, one round's worth after another."""
    return [
        (n, random_simple_arrangement(RandomSpec(n=n, seed=seed * SEED_STRIDE + j)))
        for j in range(workload.pool)
        for n in workload.sizes
    ]
