"""transgraph benchmark: end-to-end and per-layer metrics for three workloads.

Usage:
    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload sectors --seed 1 --seconds 35 --trace 0

One workload runs in one process: one client, one thread, a closed loop that
starts the next case when the previous one has been checked.  A round runs
one arrangement of every size, smallest first, so every round has the same
size mix; the loop stops at the round boundary nearest to ``--seconds`` of
loop time.  Only the cases are timed: the correctness check runs between
cases, off the clock, in a forked child so that its memory does not count
toward the workload's peak RSS.

Every timing is scaled to a fixed host speed.  The host this was built on
runs identical work up to 1.8 times slower in phases that last from a few
seconds to longer than a run.  So between cases, off the clock and at most every
``REF_EVERY_S``, the loop times ``reference()``, a fixed piece of pure-Python
work like the library's (rational arithmetic, dicts, JSON); each case's
wall time is multiplied by ``REF_NOMINAL_S`` over the reference time around
it.  A timing therefore reads as on a host where ``reference()`` takes
``REF_NOMINAL_S``; the unscaled wall times are in the results file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs rounds
untraced for half the time, then the same rounds again with the tracer
installed, and prints per-layer metrics per traced case plus the tracing
overhead over identical work.  The last line of standard output is one JSON
object; a results file goes to ``bench/results/``.

Seeds: develop a change on seed ``DEV_SEED`` and confirm a claim on
``CONFIRM_SEED``, which is not used while a change is written.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

DEV_SEED = 1
CONFIRM_SEED = 2
DEFAULT_SECONDS = 35
# Set-up is repeated in fresh interpreters and the median reported.
SETUP_REPEATS = 7
# Host-speed reference: sampled between cases at most this often, and a
# case is scaled by the median of the samples within REF_WINDOW_S of it.
REF_EVERY_S = 0.5
REF_WINDOW_S = 2.5
# The reference time every timing is scaled to: about what ``reference()``
# takes on the Intel Xeon 2-vCPU VM the baseline was recorded on (4 to 6 ms).
REF_NOMINAL_S = 0.005

E2E_UNITS = {
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

_SETUP_PROBE = (
    "import time; t = time.perf_counter(); import sys; sys.path[:0] = {paths!r}; "
    "import workloads; workloads.make_inputs(workloads.WORKLOADS[{name!r}], {seed}); "
    "t = time.perf_counter() - t; import run; print(t, run.reference_sample())"
)


def reference():
    """Fixed pure-Python work whose time tracks host speed: rational
    arithmetic, then a JSON round trip of a few hundred kB of objects, which
    contention for the caches slows as it slows the library's large graphs."""
    seen = {}
    for i in range(1, 400):
        f = Fraction(i * 7919 % 1009 + 1, i) * Fraction(3, i + 1) - Fraction(i % 17, 5)
        seen[f"{i}/{f.denominator % 13}"] = [str(f), i, {"n": f.numerator}]
    return json.loads(json.dumps(seen, sort_keys=True))


def reference_sample() -> float:
    """The median time of three ``reference()`` calls.  The cyclic garbage
    collector is off meanwhile, so that the sample does not depend on how
    many objects the program keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf_counter()
            reference()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


@dataclass
class Tally:
    """What a sequence of rounds did."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    # (start, wall seconds) of every case.
    cases: list = field(default_factory=list)
    # (time, reference_sample()) taken between cases.
    refs: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    examples: list = field(default_factory=list)
    # Coordinate bits of each case of the first round (traced runs only).
    coord_bits: list = field(default_factory=list)

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        self.failures[kind] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {detail[:300]}")

    def sample_reference(self) -> None:
        self.refs.append((perf_counter(), reference_sample()))

    def scaled_times(self) -> list[float]:
        """Case wall times scaled to a host where ``reference()`` takes
        REF_NOMINAL_S: each by the median of the reference samples within
        REF_WINDOW_S of the case, and always the nearest before and after."""
        at = [t for t, _ in self.refs]
        scaled = []
        for start, wall in self.cases:
            lo = bisect.bisect_left(at, start - REF_WINDOW_S)
            hi = bisect.bisect_right(at, start + wall + REF_WINDOW_S)
            before = bisect.bisect_right(at, start) - 1
            lo, hi = max(0, min(lo, before)), max(hi, before + 2)
            ref = statistics.median(r for _, r in self.refs[lo:hi])
            scaled.append(wall * REF_NOMINAL_S / ref)
        return scaled

    def cases_per_s(self, times: list[float]) -> float:
        return (self.attempted - self.failed) / sum(times)


def check_apart(check, out) -> Optional[str]:
    """``check(out)`` run in a forked child, so that the memory the check
    uses never counts toward this process's peak RSS."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                reason = check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            os.write(write_fd, (reason or "")[:1000].encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        reason = fh.read().decode()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return f"check process ended with wait status {status}"
    return reason or None


def run_rounds(workload, inputs, *, seconds=None, rounds=None, tracer=None) -> Tally:
    """Run ``rounds`` rounds, or rounds until the round boundary nearest to
    ``seconds`` of loop time.  Round r takes the r-th arrangement of every
    size, cycling through the inputs."""
    per_round = len(workload.sizes)
    tally = Tally()
    loop_start = perf_counter()
    tally.sample_reference()
    while True:
        round_start = perf_counter()
        first = tally.rounds * per_round % len(inputs)
        for _, arr in inputs[first : first + per_round]:
            tally.attempted += 1
            if perf_counter() - tally.refs[-1][0] >= REF_EVERY_S:
                tally.sample_reference()
            start = perf_counter()
            try:
                out = workload.run(arr)
            except Exception as exc:  # a raising case fails; the run goes on
                elapsed = perf_counter() - start
                reason = (type(exc).__name__, str(exc))
            else:
                elapsed = perf_counter() - start
                check = check_apart(workload.check, out)
                reason = None if check is None else ("check", check)
                del out
            tally.cases.append((start, elapsed))
            if tracer is not None:
                bits = tracer.take_coordinate_bits()
                if tally.rounds == 0:
                    tally.coord_bits.append(bits)
            if reason is not None:
                tally.fail(*reason)
        tally.rounds += 1
        if rounds is not None and tally.rounds >= rounds:
            break
        now = perf_counter()
        if seconds is not None and now - loop_start + (now - round_start) / 2 >= seconds:
            break
    tally.sample_reference()
    return tally


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """Import plus input generation, timed in fresh interpreters, each with
    a reference sample taken right after it."""
    code = _SETUP_PROBE.format(paths=[str(BENCH_DIR), str(SRC)], name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        wall, ref = out.stdout.strip().splitlines()[-1].split()
        times.append((float(wall), float(ref)))
    return times


def _git(*args: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _p90(times: list[float]) -> float:
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally: Tally, setup: list[tuple[float, float]]) -> dict:
    times = tally.scaled_times()
    values = {
        "cases_per_s": tally.cases_per_s(times),
        "case_ms_p50": statistics.median(times) * 1000,
        "case_ms_p90": _p90(times) * 1000,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": statistics.median(wall * REF_NOMINAL_S / ref for wall, ref in setup),
    }
    return {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()}


def wall_clock(tally: Tally) -> dict:
    """The unscaled counterparts of the timing metrics, for the record."""
    times = [wall for _, wall in tally.cases]
    return {
        "cases_per_s": tally.cases_per_s(times),
        "case_ms_p50": statistics.median(times) * 1000,
        "case_ms_p90": _p90(times) * 1000,
        "reference_ms_median": statistics.median(r for _, r in tally.refs) * 1000,
    }


def per_layer(tracer, traced: Tally, untraced: Tally) -> dict:
    from tracing import AGGREGATED, SPANNED

    cases = traced.attempted
    metrics = {}
    for name in SPANNED:
        st = tracer.stats[name]
        metrics[f"{name}.calls"] = _metric(st.calls / cases, "1/case")
        metrics[f"{name}.self_s"] = _metric(st.self_s / cases, "s/case")
    kernel = tracer.stats[AGGREGATED[0]]
    metrics[f"{AGGREGATED[0]}.calls"] = _metric(kernel.calls / cases, "1/case")
    metrics[f"{AGGREGATED[0]}.busy_s"] = _metric(kernel.self_s / cases, "s/case")
    for layer, errors in tracer.layer_errors().items():
        metrics[f"{layer}.errors"] = _metric(errors, "count")
    c = tracer.counters
    metrics["transmission.point_tests"] = _metric(c["point_tests"] / cases, "1/case")
    metrics["realization.search_rounds"] = _metric(c["search_rounds"] / cases, "1/case")
    metrics["realization.rounds_verified"] = _metric(c["rounds_verified"] / cases, "1/case")
    metrics["realization.round_accept_ratio"] = _metric(
        c["realizations"] / c["search_rounds"] if c["search_rounds"] else 0.0, "ratio"
    )
    metrics["realization.coord_bits_max"] = _metric(max(traced.coord_bits), "bits")
    metrics["serialization.bytes"] = _metric(c["bytes"] / cases, "B/case")
    traced_times, untraced_times = traced.scaled_times(), untraced.scaled_times()
    metrics["trace.cases_per_s"] = _metric(traced.cases_per_s(traced_times), "1/s")
    metrics["trace.overhead_ratio"] = _metric(
        sum(traced_times) / sum(untraced_times), "ratio"
    )
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[name]
    RESULTS.mkdir(exist_ok=True)
    start_load = os.getloadavg()[0]
    inputs = make_inputs(workload, seed)
    cpu0 = _cpu_s()
    if not trace:
        setup = setup_seconds(name, seed)
        tally = run_rounds(workload, inputs, seconds=seconds)
        metrics = end_to_end(tally, setup)
        tallies = [tally]
        p90_s = metrics["case_ms_p90"]["value"] / 1000
        detail = {
            "setup_wall_s_and_reference_s": setup,
            "samples": len(tally.cases),
            "beyond_p90": sum(1 for t in tally.scaled_times() if t > p90_s),
            "wall_clock": wall_clock(tally),
        }
    else:
        from tracing import Tracer

        untraced = run_rounds(workload, inputs, seconds=seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_rounds(workload, inputs, rounds=untraced.rounds, tracer=tracer)
        metrics = per_layer(tracer, traced, untraced)
        tallies = [untraced, traced]
        spans_path = RESULTS / f"{name}-seed{seed}.spans.jsonl"
        tracer.write_spans(spans_path)
        bits: dict = {}
        for (n, _), b in zip(inputs, traced.coord_bits):
            bits[n] = max(bits.get(n, 0), b)
        detail = {
            "wiring": tracer.wiring(name),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "coord_bits_by_size": bits,
        }
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    detail.update(
        rounds=sum(t.rounds for t in tallies),
        fail_frac=failed / attempted,
        failures=dict(sum((t.failures for t in tallies), Counter())),
        failure_examples=[e for t in tallies for e in t.examples],
        cpu_s=_cpu_s() - cpu0,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": list(workload.sizes),
        "pool": workload.pool,
        "machine": machine_record(),
        "loadavg_1min_start": start_load,
        "loadavg_1min_end": os.getloadavg()[0],
        "detail": detail,
        "result": result,
    }
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    d = record["detail"]
    print(
        f"{head}: {record['result']['attempted']} cases in {d['rounds']} rounds, "
        f"fail_frac {d['fail_frac']:.4g}, failures {d['failures'] or 'none'}"
    )
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    if "samples" in d:
        print(
            f"  latency percentiles over {d['samples']} cases; "
            f"{d['beyond_p90']} lie beyond p90"
        )
    if "wiring" in d:
        w = d["wiring"]
        ok = not (w["unexpected"] or w["missing"])
        print(f"  wiring {'as predicted' if ok else w}; {d['spans']} spans")
    for example in d["failure_examples"]:
        print(f"  failed {example}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    summary = {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            args = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                ok = False
                continue
            path = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
            record = json.loads(path.read_text(encoding="utf-8"))
            print_record(record)
            ok = ok and record["result"]["correct"]
            summary[f"{name}-trace{trace}"] = record
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"all-seed{seed}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"results written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import transgraph
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(transgraph.__file__).resolve().parent != SRC / "transgraph":
        print(f"transgraph imported from {transgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
