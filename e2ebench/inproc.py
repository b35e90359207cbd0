"""The two in-process workloads: ``ingest`` and ``analytics``.

Both drive one :class:`repro.core.engine.VSSEngine` from a single closed
loop and settle after every operation with ``engine.drain_admissions()``,
so the background work an operation queued is done before the next one
starts and the cache state before operation *k* is the same on every run.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from checks import check_answer, check_budget, expect_for
from common import measured_enough, peak_rss_self_mb
from inputs import FPS, HEIGHT, WIDTH, raw_nbytes, render_rig
from repro.bench.workloads import FORMAT_CHOICES
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, WriteSpec
from repro.vbench.calibrate import Calibration
from repro.video.codec.registry import codec_for

GOP = FPS  # one-second GOPs everywhere
#: Reduced resolution of the ingest detector's reads.
DETECTOR_RESOLUTION = (WIDTH // 2, HEIGHT // 2)


def open_store(root: Path, parallelism: int) -> VSSEngine:
    """A fresh store with the fixed default calibration saved first, so
    opening it never runs a timed calibration."""
    root.mkdir(parents=True)
    Calibration.default().save(root / "calibration.json")
    return VSSEngine(root, parallelism=parallelism)


class InProcess:
    """What both in-process workloads share: the engine, the settle, the
    per-settle budget check and the accounting of what was written."""

    min_reads = 100
    #: The engine runs in this process: its CPU is read around every
    #: operation, so the checks between operations are not counted.
    op_cpu_clock = staticmethod(time.process_time)

    def __init__(self, parallelism: int):
        self.parallelism = parallelism
        self.engine: VSSEngine | None = None
        self.input_bytes = 0  # raw RGB bytes of every frame written
        self.read_stats: list = []
        self.tracer = None

    def settle(self) -> None:
        self.engine.drain_admissions()

    def check_budgets(self) -> None:
        catalog = self.engine.catalog
        for logical in catalog.list_logical():
            check_budget(
                logical.name,
                catalog.total_bytes(logical.id),
                logical.budget_bytes,
            )

    def checked(self, fn, *args) -> None:
        """Run a check with tracing paused (checks are not operations)."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            fn(*args)
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def stats(self) -> dict:
        stats = dataclasses.asdict(self.engine.stats())
        stats["executor_tasks"] = self.engine.executor.tasks_completed
        return stats

    def peak_rss_mb(self) -> float:
        return peak_rss_self_mb()

    def stored_bytes(self) -> int:
        return sum(
            self.engine.video_stats(name).total_bytes
            for name in self.engine.list_videos("video")
        )

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


# ----------------------------------------------------------------------
class Ingest(InProcess):
    """Three cameras (two rigs) streamed GOP by GOP, h264, hevc, h264;
    each append is followed by one detector read of the newest second at
    half resolution; the streams are sealed at the end.

    An hevc append costs about twice an h264 one.  With two codecs in
    equal shares the median write falls in the gap between the two and
    jumps across it from run to run; two h264 cameras to one hevc keep
    the median inside the h264 cluster."""

    CLIP_SECONDS = 4

    def __init__(self, seed: int, parallelism: int):
        super().__init__(parallelism)
        rng = np.random.default_rng(seed)
        self.cameras = render_rig(
            11, self.CLIP_SECONDS, ("cam0", "cam1"), rng
        ) + render_rig(12, self.CLIP_SECONDS, ("cam2", "cam3"), rng)[:1]
        self.codecs = ["h264", "hevc", "h264"]

    def setup(self, root: Path) -> None:
        self.engine = open_store(root, self.parallelism)
        self.input_bytes = 0
        self.streams = [
            self.engine.open_write_stream(
                cam.name, codec, "rgb", WIDTH, HEIGHT, float(FPS), gop_size=GOP
            )
            for cam, codec in zip(self.cameras, self.codecs)
        ]
        self.gops_written = [0] * len(self.cameras)
        for index in range(len(self.cameras)):
            self._append(index)
            self.engine.read(self._detector_spec(index))
        self.settle()

    def _append(self, index: int) -> None:
        first = self.gops_written[index] * GOP
        self.streams[index].append(self.cameras[index].segment(first, GOP))
        self.gops_written[index] += 1
        self.input_bytes += raw_nbytes(GOP)

    def _detector_spec(self, index: int) -> ReadSpec:
        end = float(self.gops_written[index])
        return ReadSpec(
            self.cameras[index].name,
            end - 1.0,
            end,
            codec="raw",
            resolution=DETECTOR_RESOLUTION,
        )

    def measure(self, ledger, seconds: float, limit: int | None = None) -> int:
        rounds = 0
        while not measured_enough(ledger, seconds, self.min_reads, rounds, limit):
            for index, camera in enumerate(self.cameras):
                ledger.run(
                    "write",
                    lambda: self._append(index),
                    self.settle,
                    raw_bytes=raw_nbytes(GOP),
                )
                self.checked(self.check_budgets)
                spec = self._detector_spec(index)
                result = ledger.run(
                    "read", lambda: self.engine.read(spec), self.settle
                )
                self.read_stats.append(result.stats)
                self.checked(self.check_budgets)
                self.checked(
                    check_answer,
                    result.segment,
                    result.gops,
                    expect_for(spec, camera, (WIDTH, HEIGHT)),
                )
            rounds += 1
        for stream in self.streams:
            ledger.run("seal", stream.close, self.settle)
            self.checked(self.check_budgets)
        return rounds


# ----------------------------------------------------------------------
#: Output resolutions of the section 6.1 reads: the original and its
#: halvings, snapped to even sizes (as ``RandomReadWorkload`` draws them).
RESOLUTIONS = ((WIDTH, HEIGHT), (WIDTH // 2, HEIGHT // 2), (48, 26))
#: The analytics read round: twelve slots covering every (output format,
#: output resolution) pair of ``RandomReadWorkload``'s parameter space
#: once, so every round issues the same mix; the seed picks window starts
#: and camera offsets.  Slot s reads format s % 4
#: at resolution s % 3 from stored camera s % 3, so each camera is read at
#: one output resolution (see README: a cached lower-resolution copy is
#: accepted for higher-resolution reads).  Window lengths (1-4 s) rotate by
#: slot and round.
ROUND_SLOTS = 12
#: Slots whose read repeats the same slot's read from two rounds earlier
#: (from round 0 in round 1): a full-resolution ROI yuv420 read, a quarter
#: resolution h264 read and a half resolution hevc read.
REPEAT_SLOTS = (3, 5, 10)
#: Slots whose read carries the hot ROI: every read of the full-resolution
#: camera, so the retile policy's 32-access threshold is crossed in round 8.
ROI_SLOTS = (0, 3, 6, 9)
#: The live camera gets one GOP after each of these slots.
APPEND_AFTER = (3, 7, 11)


class Analytics(InProcess):
    """Section 6.1 random reads over three stored cameras (two overlapping
    rigs) whose decoded frames exceed the 64 MiB decode cache three times
    over, with repeats, a hot ROI and a live fourth camera."""

    CLIP_SECONDS = 4
    LOOPS = 9  # each stored camera holds CLIP_SECONDS * LOOPS seconds
    min_reads = 120  # ten rounds: the access-driven retile lands in all
    #: The hot region (x0, y0, x1, y1): the lower-left quarter of the frame.
    ROI = (0, HEIGHT // 2, WIDTH // 2, HEIGHT)

    def __init__(self, seed: int, parallelism: int):
        super().__init__(parallelism)
        self.rng = np.random.default_rng(seed)
        rig = render_rig(13, self.CLIP_SECONDS, ("camA", "camB"), self.rng)
        other = render_rig(14, self.CLIP_SECONDS, ("camC", "camD"), self.rng)
        self.stored = [rig[0], rig[1], other[0]]
        self.live = other[1]
        self.stored_codecs = ("h264", "hevc", "h264")
        # The cameras deliver compressed GOPs; encoding them is part of
        # making the inputs, not of the store's set-up.
        self.stored_gops = []
        for camera, codec in zip(self.stored, self.stored_codecs):
            clip = codec_for(codec).encode_segment(
                camera.segment(0, camera.clip_frames), gop_size=GOP
            )
            self.stored_gops.append(clip * self.LOOPS)
        self.duration = self.CLIP_SECONDS * self.LOOPS
        self.history: dict[int, list[ReadSpec]] = {}

    def setup(self, root: Path) -> None:
        self.engine = open_store(root, self.parallelism)
        self.input_bytes = 0
        for camera, gops in zip(self.stored, self.stored_gops):
            self.engine.write(WriteSpec(camera.name), gops=gops)
            self.input_bytes += raw_nbytes(len(gops) * GOP)
        self.stream = self.engine.open_write_stream(
            self.live.name, "h264", "rgb", WIDTH, HEIGHT, float(FPS),
            gop_size=GOP,
        )
        self.live_gops = 0
        self._append_live()
        self.settle()

    def _append_live(self) -> None:
        first = self.live_gops * GOP
        self.stream.append(self.live.segment(first, GOP))
        self.live_gops += 1
        self.input_bytes += raw_nbytes(GOP)

    def _spec(self, round_index: int, slot: int) -> ReadSpec:
        if slot in REPEAT_SLOTS and round_index > 0:
            return self.history[slot][max(0, round_index - 2)]
        codec, pixel_format = FORMAT_CHOICES[slot % 4]
        resolution = RESOLUTIONS[slot % 3]
        camera = self.stored[slot % 3]
        length = 1 + (slot // 3 + round_index) % 4
        start = int(self.rng.integers(0, self.duration - length + 1))
        return ReadSpec(
            camera.name,
            float(start),
            float(start + length),
            codec=codec,
            pixel_format=pixel_format,
            resolution=None if resolution == (WIDTH, HEIGHT) else resolution,
            roi=self.ROI if slot in ROI_SLOTS else None,
        )

    def measure(self, ledger, seconds: float, limit: int | None = None) -> int:
        cameras = {camera.name: camera for camera in self.stored}
        rounds = 0
        while not measured_enough(ledger, seconds, self.min_reads, rounds, limit):
            for slot in range(ROUND_SLOTS):
                spec = self._spec(rounds, slot)
                self.history.setdefault(slot, []).append(spec)
                result = ledger.run(
                    "read", lambda: self.engine.read(spec), self.settle
                )
                self.read_stats.append(result.stats)
                self.checked(self.check_budgets)
                self.checked(
                    check_answer,
                    result.segment,
                    result.gops,
                    expect_for(spec, cameras[spec.name], (WIDTH, HEIGHT)),
                )
                if slot in APPEND_AFTER:
                    ledger.run(
                        "write",
                        self._append_live,
                        self.settle,
                        raw_bytes=raw_nbytes(GOP),
                    )
                    self.checked(self.check_budgets)
            rounds += 1
        return rounds

