"""One benchmark run: set up, measure, check, and report.

An untraced run reports the eight end-to-end metrics.  A traced run
first repeats the untraced measurement with one set-up, then replays
exactly the same operations (same seed, same number of rounds) on a fresh
store with the span wrappers installed, and reports the per-layer metrics
together with the tracing overhead between the two.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckFailed
from common import END_TO_END_UNITS, TAIL_PERCENTILE, Ledger, end_to_end
from layers import PER_LAYER_UNITS, per_layer
from spans import SpanIndex, Tracer, chrome_trace


#: Set-ups per untraced run; ``setup_s`` is their median and the last
#: one is the store that is measured.
SETUPS = 3


@dataclass
class Measured:
    """What one measured phase leaves behind."""

    workload: object
    ledger: Ledger
    setups: list[float]
    rounds: int
    before: dict
    after: dict
    cpu_s: float
    stored_bytes: int
    input_bytes: int
    peak_rss_mb: float


#: Engine parallelism of every workload.  One client keeps one operation
#: in flight, and with one worker that operation's work runs inline on one
#: thread: the same work in the same order on every run (the decode cache
#: then holds the same GOPs before operation *k* on every run, which at 2
#: workers depends on which prefetched chunk finishes first).  On the
#: 2-core reference host 2 workers also made ingest's detector reads
#: slower, and a busy neighbour on one core spread its timing metrics
#: several times wider than at 1 (see README, *Where the spread comes
#: from*).
PARALLELISM = 1


def make(name: str, seed: int, work: Path):
    parallelism = PARALLELISM
    if name == "ingest":
        from inproc import Ingest

        return Ingest(seed, parallelism)
    if name == "analytics":
        from inproc import Analytics

        return Analytics(seed, parallelism)
    from remote import HotReads

    return HotReads(seed, parallelism, work / "oracle")


def measure(
    workload, work: Path, seconds: float, setups: int,
    limit: int | None = None, tracer: Tracer | None = None,
) -> Measured:
    times = []
    try:
        for index in range(setups):
            root = work / f"store-{index}"
            start = time.perf_counter()
            workload.setup(root)
            times.append(time.perf_counter() - start)
            if index < setups - 1:
                workload.close()
                shutil.rmtree(root)
        ledger = Ledger(tracer=tracer, cpu_clock=workload.op_cpu_clock)
        workload.tracer = tracer
        if tracer is not None:
            tracer.bind_client()
        before = workload.stats()
        shard_cpu = workload.op_cpu_clock is None
        cpu0 = workload.cpu_seconds() if shard_cpu else 0.0
        rounds = workload.measure(ledger, seconds, limit)
        after = workload.stats()
        cpu_s = workload.cpu_seconds() - cpu0 if shard_cpu else ledger.cpu_s
        if tracer is not None:
            tracer.paused = True
        stored = workload.stored_bytes()
        workload.check_budgets()
        peak = workload.peak_rss_mb()
    finally:
        workload.close()
        if tracer is not None:
            tracer.paused = False
    return Measured(
        workload, ledger, times, rounds, before, after, cpu_s, stored,
        workload.input_bytes, peak,
    )


def _result(correct: bool, ledger: Ledger | None, metrics: dict, units: dict):
    return {
        "correct": correct,
        "attempted": len(ledger.ops) if ledger is not None else 1,
        "failed": 0,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, work: Path,
    trace_dir: Path,
) -> dict:
    try:
        if not traced:
            run = measure(make(name, seed, work), work, seconds, SETUPS)
            metrics = end_to_end(
                name, run.ledger, run.setups, run.stored_bytes,
                run.input_bytes, run.peak_rss_mb,
            )
            _describe(name, run, metrics)
            return _result(True, run.ledger, metrics, END_TO_END_UNITS)
        plain = measure(make(name, seed, work / "plain"), work / "plain",
                        seconds, setups=1)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.glob("*.json"):
            stale.unlink()
        tracer = Tracer("client")
        tracer.install()
        try:
            workload = make(name, seed, work / "traced")
            workload.trace_dir = trace_dir
            traced_run = measure(
                workload, work / "traced", seconds, setups=1,
                limit=plain.rounds, tracer=tracer,
            )
        finally:
            tracer.uninstall()
        processes = {"client": tracer.spans}
        if name == "hot_reads":
            for process in ("router", "shard"):
                path = trace_dir / f"{process}.spans.json"
                processes[process] = json.loads(path.read_text())["spans"]
                path.unlink()
        index = SpanIndex(traced_run.ledger.ops, processes)
        overhead = (
            traced_run.ledger.busy_s / plain.ledger.busy_s - 1.0
        ) * 100.0
        metrics = per_layer(traced_run, index, overhead)
        _export(trace_dir, traced_run.ledger, processes)
        print(
            f"{name}: traced {len(traced_run.ledger.ops)} ops "
            f"({traced_run.rounds} rounds); trace files in {trace_dir}",
            file=sys.stderr,
        )
        return _result(True, traced_run.ledger, metrics, PER_LAYER_UNITS)
    except CheckFailed as exc:
        print(f"{name}: output check failed: {exc}", file=sys.stderr)
        units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
        return _result(False, None, {}, units)


def _describe(name: str, run: Measured, metrics: dict) -> None:
    """One human-readable line ahead of the JSON result."""
    ledger = run.ledger
    print(
        f"{name}: parallelism {PARALLELISM}, {run.rounds} rounds, "
        f"{ledger.reads} reads, {len(ledger.of('write'))} writes, "
        f"tail=p{TAIL_PERCENTILE[name]}, setups "
        f"{', '.join(f'{s:.2f}' for s in run.setups)} s, "
        f"busy {ledger.busy_s:.1f} s"
    )


def _export(trace_dir: Path, ledger: Ledger, processes: dict) -> None:
    """Chrome trace-event JSON, one file per process; the client file also
    carries one span per operation."""
    origin = ledger.ops[0].t0 if ledger.ops else 0
    for pid, (process, spans) in enumerate(processes.items(), start=1):
        if process == "client":
            spans = spans + [
                [0, None, f"op.{op.kind}", "benchmark", op.t0, op.t2, 0, None,
                 op.id]
                for op in ledger.ops
            ]
        doc = chrome_trace(process, spans, origin, pid)
        (trace_dir / f"{process}.trace.json").write_text(json.dumps(doc))


