"""Tests of the benchmark itself: planted mutants count as failures, and the
tracer's wrappers fire exactly where ``tracing.FIRES`` predicts."""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import run
from tracing import Tracer
from transgraph import realization, reductions, serialization, verification
from workloads import WORKLOADS, make_inputs

SMALL = {"segments": (3, 4), "sectors": (3,), "documents": (3, 4)}


def small(name):
    workload = replace(WORKLOADS[name], sizes=SMALL[name], pool=1)
    return workload, make_inputs(workload, seed=1)


def test_segment_mutant_in_expected_graph_fails_every_case(monkeypatch):
    mutant = lambda desc: reductions.reduce_segments(desc, omit=("BORDER",))
    monkeypatch.setattr(verification, "reduce_segments", mutant)
    tally = run.run_rounds(*small("segments"), rounds=1)
    assert tally.failed == tally.attempted == 2
    assert tally.failures == {"check": 2}


def test_sector_mutant_in_expected_graph_fails_every_case(monkeypatch):
    mutant = lambda desc: reductions.reduce_sectors(desc, omit=("EGO",))
    monkeypatch.setattr(verification, "reduce_sectors", mutant)
    tally = run.run_rounds(*small("sectors"), rounds=1)
    assert tally.failed == tally.attempted == 1
    assert tally.failures == {"check": 1}


def test_raising_case_is_counted_with_its_type_and_the_run_goes_on(monkeypatch):
    mutant = lambda desc: reductions.reduce_segments(desc, omit=("CA",))
    monkeypatch.setattr(realization, "reduce_segments", mutant)
    tally = run.run_rounds(*small("segments"), rounds=2)
    assert tally.attempted == 4
    assert tally.failures == {"RealizationError": 4}


def test_document_that_decodes_differently_fails(monkeypatch):
    decode = serialization.document_from_json

    def lossy(text):
        doc = decode(text)
        graph = doc.payload
        dropped = replace(graph, edges=frozenset(sorted(graph.edges)[1:]))
        return replace(doc, payload=dropped)

    monkeypatch.setattr(serialization, "document_from_json", lossy)
    tally = run.run_rounds(*small("documents"), rounds=1)
    assert tally.failures == {"check": 2}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_fire_where_predicted(name):
    workload, inputs = small(name)
    tracer = Tracer()
    with tracer.installed():
        tally = run.run_rounds(workload, inputs, rounds=1, tracer=tracer)
    assert tally.failed == 0
    assert tracer.wiring(name) == {"unexpected": [], "missing": []}
    assert not any(tracer.layer_errors().values())
    # Uninstalling restores every rebound name.
    assert verification.round_trip_sectors.__module__ == "transgraph.verification"
    assert realization.transmission_graph is sys.modules["transgraph.transmission"].transmission_graph
