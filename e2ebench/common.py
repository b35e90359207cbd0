"""The closed-loop operation ledger and the end-to-end metrics made from it."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: The tail percentile each workload reports: the highest of p90/p95/p99
#: that leaves at least ten reads beyond it at the workload's minimum read
#: count (ingest and analytics run at least 100 reads, hot_reads 1000).
TAIL_PERCENTILE = {"ingest": 90, "analytics": 90, "hot_reads": 99}

END_TO_END_UNITS = {
    "setup_s": "s",
    "reads_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "write_p50_ms": "ms",
    "ingest_mb_per_s": "MB/s",
    "stored_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One client operation: call [t0, t1), settle [t1, t2) (ns)."""

    id: int
    kind: str  # "read", "write" or "seal"
    t0: int
    t1: int
    t2: int

    @property
    def call_s(self) -> float:
        return (self.t1 - self.t0) / 1e9

    @property
    def settle_s(self) -> float:
        return (self.t2 - self.t1) / 1e9


@dataclass
class Ledger:
    """Every measured operation of one run, in the order issued."""

    ops: list[Op] = field(default_factory=list)
    raw_bytes_measured: int = 0  # raw RGB bytes written in the measured phase
    tracer: object | None = None
    #: CPU clock of the engine's process, read around every operation
    #: when it is this process (checks between operations are excluded).
    cpu_clock: object | None = None
    cpu_s: float = 0.0

    def run(self, kind: str, call, settle, raw_bytes: int = 0):
        """Issue one operation, then wait for the background work it
        queued.  Returns the call's result."""
        op_id = len(self.ops)
        if self.tracer is not None:
            self.tracer.op = op_id
        cpu0 = self.cpu_clock() if self.cpu_clock is not None else 0.0
        t0 = time.perf_counter_ns()
        result = call()
        t1 = time.perf_counter_ns()
        settle()
        t2 = time.perf_counter_ns()
        if self.cpu_clock is not None:
            self.cpu_s += self.cpu_clock() - cpu0
        if self.tracer is not None:
            self.tracer.op = None
        self.ops.append(Op(op_id, kind, t0, t1, t2))
        self.raw_bytes_measured += raw_bytes
        return result

    def of(self, *kinds: str) -> list[Op]:
        return [op for op in self.ops if op.kind in kinds]

    @property
    def busy_s(self) -> float:
        """Seconds spent in operations and their settles."""
        return sum((op.t2 - op.t0) for op in self.ops) / 1e9

    @property
    def reads(self) -> int:
        return len(self.of("read"))


def measured_enough(
    ledger: Ledger, seconds: float, min_reads: int, rounds: int, limit
) -> bool:
    """Whether a run has done its whole rounds: exactly ``limit`` of them
    when given (a traced replay), else until ``seconds`` of operation time
    have passed and at least ``min_reads`` reads were made."""
    if limit is not None:
        return rounds >= limit
    return ledger.busy_s >= seconds and ledger.reads >= min_reads


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_self_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    workload: str,
    ledger: Ledger,
    setups: list[float],
    stored_bytes: int,
    input_bytes: int,
    peak_rss_mb: float,
) -> dict[str, float]:
    """The eight end-to-end metrics of one run."""
    reads = ledger.of("read")
    writes = ledger.of("write")
    read_ms = [op.call_s * 1e3 for op in reads]
    write_busy = sum(op.call_s + op.settle_s for op in ledger.of("write", "seal"))
    return {
        "setup_s": statistics.median(setups),
        "reads_per_s": len(reads) / sum(op.call_s + op.settle_s for op in reads),
        "read_p50_ms": percentile(read_ms, 50),
        "read_tail_ms": percentile(read_ms, TAIL_PERCENTILE[workload]),
        "write_p50_ms": percentile([op.call_s * 1e3 for op in writes], 50),
        "ingest_mb_per_s": ledger.raw_bytes_measured / 1e6 / write_busy,
        "stored_bytes_per_input_byte": stored_bytes / input_bytes,
        "peak_rss_mb": peak_rss_mb,
    }
