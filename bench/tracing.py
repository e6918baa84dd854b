"""Spans and counters around the library's layer functions, from outside.

The tracer wraps the functions named in ``SPANNED`` and ``AGGREGATED`` by
rebinding every module attribute of ``transgraph`` that refers to them.
Modules import each other with ``from .x import f``, so wrapping
``transgraph.transmission.transmission_graph`` alone would miss the call in
``transgraph.realization``; the rebinding therefore covers every namespace
that holds the function.

A spanned call records (name, start, end, parent) in memory.  An aggregated
call (the hot geometry kernel, the rotation constructor) only adds to its
call count and busy time, because one span per call would cost more than the
call.  Both charge their duration to the enclosing span, so a span's self
time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

SPANNED = (
    "arrangement.extract_description",
    "arrangement.is_simple",
    "reductions.reduce_segments",
    "reductions.reduce_sectors",
    "transmission.transmission_graph",
    "realization.realize_segments",
    "realization.realize_sectors",
    "realization.is_equiangular",
    "realization.check_observation1",
    "realization.check_ordering_gadget",
    "graphs.graph_diff",
    "graphs.digraph",
    "serialization.document_to_json",
    "serialization.document_from_json",
    "verification.round_trip_segments",
    "verification.round_trip_sectors",
)
AGGREGATED = (
    "geometry.acute_angle_at_least",
    "geometry.rotation_from_parameter",
)
LAYERS = sorted({name.split(".")[0] for name in SPANNED + AGGREGATED})

# The functions each workload is predicted to call; every other wrapped
# function is predicted idle on it.  ``wiring`` compares a traced run with
# this table.
FIRES = {
    "segments": {
        "arrangement.extract_description",
        "arrangement.is_simple",
        "reductions.reduce_segments",
        "transmission.transmission_graph",
        "realization.realize_segments",
        "geometry.rotation_from_parameter",
        "graphs.graph_diff",
        "graphs.digraph",
        "verification.round_trip_segments",
    },
    "sectors": {
        "arrangement.extract_description",
        "arrangement.is_simple",
        "reductions.reduce_sectors",
        "transmission.transmission_graph",
        "realization.realize_sectors",
        "realization.is_equiangular",
        "realization.check_observation1",
        "realization.check_ordering_gadget",
        "geometry.acute_angle_at_least",
        "geometry.rotation_from_parameter",
        "graphs.graph_diff",
        "graphs.digraph",
        "verification.round_trip_sectors",
    },
    "documents": {
        "arrangement.extract_description",
        "reductions.reduce_sectors",
        "graphs.digraph",
        "serialization.document_to_json",
        "serialization.document_from_json",
    },
}


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


def _coordinate_bits(inst) -> int:
    """Largest numerator or denominator bit length over the realized points
    and squared radii of an instance."""
    bits = 0
    for _, obj in inst.entries:
        values = [getattr(obj, "radius_sq", 0)]
        for attr in ("p", "q", "apex", "center"):
            pt = getattr(obj, attr, None)
            if pt is not None:
                values += [pt.x, pt.y]
        for v in values:
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stats = {name: FunctionStats() for name in SPANNED + AGGREGATED}
        self.counters = {
            "point_tests": 0,
            "search_rounds": 0,
            "rounds_verified": 0,
            "realizations": 0,
            "bytes": 0,
        }
        # Realizations returned since the last ``take_coordinate_bits``; the
        # caller measures their coordinate sizes outside the timed case.
        self.realized: list = []
        # Open spans: [span index, name, time covered by children].
        self._stack: list = []

    def _inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def _before(self, name: str, args) -> None:
        if name == "transmission.transmission_graph":
            m = len(args[0])
            self.counters["point_tests"] += m * (m - 1)
            if self._inside("realization.realize_sectors"):
                self.counters["rounds_verified"] += 1
        elif name == "geometry.rotation_from_parameter":
            if self._inside("realization.realize_sectors"):
                self.counters["search_rounds"] += 1

    def _after(self, name: str, result) -> None:
        if name == "realization.realize_sectors":
            self.counters["realizations"] += 1
            self.realized.append(result)
        elif name == "realization.realize_segments":
            self.realized.append(result)
        elif name == "serialization.document_to_json":
            self.counters["bytes"] += len(result)  # json.dumps output is ASCII

    def take_coordinate_bits(self) -> int:
        bits = max((_coordinate_bits(r.instance) for r in self.realized), default=0)
        self.realized.clear()
        return bits

    def _spanned(self, name: str, fn):
        stats, stack, spans = self.stats[name], self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._before(name, args)
            parent = stack[-1][0] if stack else None
            frame = [len(spans), name, 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                stats.calls += 1
                stats.self_s += end - start - frame[2]
                if stack:
                    stack[-1][2] += end - start
                spans[frame[0]] = (name, start, end, parent)
            self._after(name, result)
            return result

        return wrapper

    def _aggregated(self, name: str, fn):
        stats, stack = self.stats[name], self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._before(name, args)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                busy = perf_counter() - start
                stats.calls += 1
                stats.self_s += busy
                if stack:
                    stack[-1][2] += busy

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        restore = []
        try:
            for names, make in ((SPANNED, self._spanned), (AGGREGATED, self._aggregated)):
                for name in names:
                    layer, attr = name.split(".")
                    original = getattr(importlib.import_module(f"transgraph.{layer}"), attr)
                    wrapper = make(name, original)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name != "transgraph" and not mod_name.startswith("transgraph."):
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
                                restore.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(restore):
                setattr(mod, key, original)

    def wiring(self, workload: str) -> dict:
        """Wrapped functions that ran though predicted idle, and the reverse."""
        fires = FIRES[workload]
        ran = {name for name, st in self.stats.items() if st.calls}
        return {"unexpected": sorted(ran - fires), "missing": sorted(fires - ran)}

    def layer_errors(self) -> dict:
        errors = dict.fromkeys(LAYERS, 0)
        for name, st in self.stats.items():
            errors[name.split(".")[0]] += st.errors
        return errors

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
