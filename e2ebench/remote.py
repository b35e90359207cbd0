"""The remote workload, ``hot_reads``: one binary client on one connection
to a router process that fronts one binary shard process.

Both servers are started through ``launch.py``, which calls
``repro.server.__main__.main`` (with the tracing wrappers installed first
when the run is traced), so the process topology is the stock one.  After
every operation the client polls the shard's metrics on a second
connection until ``admissions_completed == admissions_enqueued`` and
``extraction_pending == 0``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import (
    CheckFailed,
    answer_fingerprint,
    check_answer,
    check_budget,
    check_identical,
    expect_for,
)
from common import measured_enough
from inputs import FPS, HEIGHT, WIDTH, raw_nbytes, render_rig
from repro.client import VSSBinaryClient
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, WriteSpec
from repro.vbench.calibrate import Calibration

HERE = Path(__file__).resolve().parent
GOP = FPS
START_TIMEOUT_S = 60.0


class Server:
    """One server process started through the benchmark's launcher."""

    def __init__(
        self, argv: list[str], trace_file: Path | None, marker: str, log: Path
    ):
        command = [sys.executable, "-u", str(HERE / "launch.py")]
        if trace_file is not None:
            command += ["--trace-out", str(trace_file)]
        command += ["--", *argv]
        self.log = log
        # stderr goes to a file: a pipe nobody drains could fill and stall
        # the server.
        with open(log, "w") as stderr:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        self.url = self._wait_for(marker)
        host_port = self.url.split("://", 1)[1].split(" ")[0]
        host, port = host_port.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def _wait_for(self, marker: str) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if marker in line:
                return line.rsplit(" on ", 1)[1].strip()
        self.stop()
        raise RuntimeError(
            f"server did not start: {self.log.read_text()[-2000:]}"
        )

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1]
        parts = fields.split()
        ticks = int(parts[11]) + int(parts[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Interrupt the server (it closes its store and, when traced,
        writes its spans), then wait for it to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class HotReads:
    """A few seconds of one camera, read again and again through the
    router: mostly stored-format GOP-aligned windows (direct-served), a
    minority of half-resolution raw windows (decode-cache served), and a
    one-second clip upload once per round."""

    CLIP_SECONDS = 4
    #: A round reads each direct-served spec 28 times and each raw spec
    #: once: 196 + 4 reads, so the raw reads are 2% and p99 falls among
    #: them rather than on the edge between the two kinds.
    DIRECT_REPEATS = 28
    RAW_REPEATS = 1
    min_reads = 1000
    #: The engine runs in the shard: its CPU is read from /proc around the
    #: whole measured phase instead.
    op_cpu_clock = None

    def __init__(self, seed: int, parallelism: int, oracle_root: Path):
        # Client, router and shard share one CPU (the servers inherit this
        # process's affinity).  The loop is closed and one request is in
        # flight at a time, so one CPU serves it; spread over two CPUs,
        # every hop pays a cross-CPU wake-up whose cost on the reference
        # host swung reads/s between 155 and 267 from run to run.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.parallelism = parallelism
        self.rng = np.random.default_rng(seed)
        self.hot, self.uploader = render_rig(
            15, self.CLIP_SECONDS, ("hot", "uploads"), self.rng
        )
        seconds = self.CLIP_SECONDS
        self.direct = [
            ReadSpec("hot", float(k), float(k + n), codec="h264")
            for n in (1, 2)
            for k in range(seconds - n + 1)
        ]
        self.raw = [
            ReadSpec(
                "hot", float(k), float(k + 1), codec="raw",
                resolution=(WIDTH // 2, HEIGHT // 2),
            )
            for k in range(seconds)
        ]
        self.read_stats: list = []
        self.transport_ms: list[float] = []
        self.trace_dir: Path | None = None
        self.servers: list[Server] = []
        self.client = self.probe = None
        self.oracle = self._oracle(oracle_root)

    # ------------------------------------------------------------------
    def _base_segment(self):
        return self.hot.segment(0, self.hot.clip_frames)

    def _oracle(self, root: Path) -> dict:
        """Every working-set answer read in process from a store fed the
        same way, each checked against the source frames."""
        root.mkdir(parents=True)
        Calibration.default().save(root / "calibration.json")
        answers = {}
        with VSSEngine(root, parallelism=self.parallelism, cache_reads=False) as engine:
            engine.write(
                WriteSpec("hot", codec="h264", gop_size=GOP),
                segment=self._base_segment(),
            )
            for spec in self.direct + self.raw:
                result = engine.read(spec)
                check_answer(
                    result.segment, result.gops,
                    expect_for(spec, self.hot, (WIDTH, HEIGHT)),
                )
                answers[spec] = answer_fingerprint(result.segment, result.gops)
        return answers

    # ------------------------------------------------------------------
    def setup(self, root: Path) -> None:
        root.mkdir(parents=True)
        Calibration.default().save(root / "calibration.json")
        self.input_bytes = 0
        self.uploads = 0
        self.upload_frame = 0
        trace = self.trace_dir
        shard = Server(
            [str(root), "--binary", "--port", "0", "--quiet",
             "--parallelism", str(self.parallelism)],
            trace / "shard.spans.json" if trace else None,
            "serving VSS store",
            root.parent / f"{root.name}.shard.log",
        )
        self.servers = [shard]
        router = Server(
            ["--router", "--shards", f"{shard.host}:{shard.port}",
             "--port", "0", "--http-port", "0", "--quiet"],
            trace / "router.spans.json" if trace else None,
            "routing",
            root.parent / f"{root.name}.router.log",
        )
        self.servers.append(router)
        self.shard = shard
        self.client = VSSBinaryClient(router.host, router.port, pool_connections=1)
        self.probe = VSSBinaryClient(shard.host, shard.port, pool_connections=1)
        self.client.write(
            "hot", self._base_segment(), codec="h264", gop_size=GOP
        )
        self.input_bytes += raw_nbytes(self.hot.clip_frames)
        self.settle()
        for spec in self.direct + self.raw:
            self.client.read(spec)
            self.settle()

    def settle(self) -> None:
        while True:
            engine = self.probe.metrics()["engine"]
            if (
                engine["admissions_completed"] == engine["admissions_enqueued"]
                and engine["extraction_pending"] == 0
            ):
                return
            time.sleep(0.0005)

    def _upload(self):
        first = self.upload_frame
        segment = self.uploader.segment(first, GOP)
        self.upload_frame = (first + GOP) % self.uploader.clip_frames
        name = f"upload{self.uploads}"
        self.uploads += 1
        self.input_bytes += raw_nbytes(GOP)
        reply = self.client.write(name, segment, codec="h264", gop_size=GOP)
        return name, segment, reply

    def _check_upload(self, name, segment, reply) -> None:
        expected = ("h264", WIDTH, HEIGHT, segment.start_time, segment.end_time)
        got = (
            reply["codec"], reply["width"], reply["height"],
            reply["start_time"], reply["end_time"],
        )
        if got != expected:
            raise CheckFailed(f"upload {name} stored as {got}, wanted {expected}")
        self._check_budget(name)

    def _check_budget(self, name: str) -> None:
        stats = self.probe.video_stats(name)
        check_budget(name, stats["total_bytes"], stats["budget_bytes"])

    def measure(self, ledger, seconds: float, limit: int | None = None) -> int:
        rounds = 0
        while not measured_enough(ledger, seconds, self.min_reads, rounds, limit):
            order = (
                self.direct * self.DIRECT_REPEATS + self.raw * self.RAW_REPEATS
            )
            for index in self.rng.permutation(len(order)):
                spec = order[index]
                result = ledger.run(
                    "read", lambda: self.client.read(spec), self.settle
                )
                client_ms = ledger.ops[-1].call_s * 1e3
                self.read_stats.append(result.stats)
                self.transport_ms.append(
                    client_ms - result.stats.wall_seconds * 1e3
                )
                check_identical(result.segment, result.gops, self.oracle[spec])
                self._check_budget("hot")
            upload = ledger.run(
                "write", self._upload, self.settle, raw_bytes=raw_nbytes(GOP)
            )
            self._check_upload(*upload)
            rounds += 1
        return rounds

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return dict(self.probe.metrics()["engine"])

    def cpu_seconds(self) -> float:
        return self.shard.cpu_seconds()

    def peak_rss_mb(self) -> float:
        return self.shard.peak_rss_mb()

    def stored_bytes(self) -> int:
        return sum(
            self.probe.video_stats(name)["total_bytes"]
            for name in self.probe.list_videos("video")
        )

    def check_budgets(self) -> None:
        for name in self.probe.list_videos("video"):
            self._check_budget(name)

    def close(self) -> None:
        for client in (self.client, self.probe):
            if client is not None:
                client.close()
        self.client = self.probe = None
        for server in reversed(self.servers):
            server.stop()
        self.servers = []
