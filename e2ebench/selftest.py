"""``run.py --self-test``: every output check accepts a good answer and
rejects a deliberately corrupted one, on a one-second store.

Cases: a dropped frame, the wrong geometry, flipped pixels (raw and
encoded answers), an over-budget store, and a local/remote mismatch.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
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
from inputs import FPS, HEIGHT, WIDTH, render_rig
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, WriteSpec
from repro.vbench.calibrate import Calibration
from repro.video.codec.registry import codec_for


def _flip_frame(segment, index: int):
    pixels = segment.pixels.copy()
    pixels[index] = 255 - pixels[index]
    return dataclasses.replace(segment, pixels=pixels)


def _flip_gop(gops):
    """The same answer with the first GOP's key frame re-encoded from
    inverted pixels (a valid stream carrying the wrong picture)."""
    head = gops[0]
    codec = codec_for(head.codec)
    decoded = codec.decode_gop(head)
    bad = codec.encode_gop(_flip_frame(decoded, 0), qp=head.qp)
    return [bad.with_start_time(head.start_time)] + list(gops[1:])


def _flip_byte(gops):
    head = gops[0]
    payloads = list(head.payloads)
    first = bytearray(payloads[0])
    first[len(first) // 2] ^= 0xFF
    payloads[0] = bytes(first)
    return [dataclasses.replace(head, payloads=payloads)] + list(gops[1:])


def self_test(scratch: Path) -> int:
    root = scratch / f"selftest-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        return _run(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run(root: Path) -> int:
    camera = render_rig(7, 1, ("selftest", "unused"), np.random.default_rng(0))[0]
    Calibration.default().save(root / "calibration.json")
    outcomes: list[tuple[str, bool]] = []

    def expect_pass(label: str, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            outcomes.append((f"{label}: accepted (got: {exc})", False))
        else:
            outcomes.append((f"{label}: accepted", True))

    def expect_reject(label: str, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            outcomes.append((f"{label}: rejected ({exc})", True))
        else:
            outcomes.append((f"{label}: NOT rejected", False))

    with VSSEngine(root, parallelism=1, cache_reads=False) as engine:
        engine.write(
            WriteSpec("selftest", codec="h264", gop_size=FPS),
            segment=camera.segment(0, FPS),
        )
        raw_spec = ReadSpec(
            "selftest", 0.0, 1.0, codec="raw",
            resolution=(WIDTH // 2, HEIGHT // 2),
        )
        raw = engine.read(raw_spec)
        raw_expect = expect_for(raw_spec, camera, (WIDTH, HEIGHT))
        h264_spec = ReadSpec("selftest", 0.0, 1.0, codec="h264")
        h264 = engine.read(h264_spec)
        h264_expect = expect_for(h264_spec, camera, (WIDTH, HEIGHT))
        small = engine.read(raw_spec.replace(resolution=(48, 26)))

        expect_pass("raw answer", check_answer, raw.segment, None, raw_expect)
        expect_pass("h264 answer", check_answer, None, h264.gops, h264_expect)
        dropped = dataclasses.replace(raw.segment, pixels=raw.segment.pixels[:-1])
        expect_reject("dropped frame", check_answer, dropped, None, raw_expect)
        expect_reject(
            "wrong geometry", check_answer, small.segment, None, raw_expect
        )
        expect_reject(
            "flipped pixels (raw)", check_answer,
            _flip_frame(raw.segment, FPS // 2), None, raw_expect,
        )
        expect_reject(
            "flipped pixels (h264)", check_answer,
            None, _flip_gop(h264.gops), h264_expect,
        )

        stats = engine.video_stats("selftest")
        expect_pass(
            "store within budget", check_budget,
            "selftest", stats.total_bytes, stats.budget_bytes,
        )
        engine.set_budget("selftest", stats.total_bytes // 2)
        stats = engine.video_stats("selftest")
        expect_reject(
            "over-budget store", check_budget,
            "selftest", stats.total_bytes, stats.budget_bytes,
        )

        oracle = answer_fingerprint(None, h264.gops)
        again = engine.read(h264_spec)
        expect_pass("local/remote parity", check_identical, None, again.gops, oracle)
        expect_reject(
            "local/remote mismatch (one byte)", check_identical,
            None, _flip_byte(again.gops), oracle,
        )
        raw_oracle = answer_fingerprint(raw.segment, None)
        expect_reject(
            "local/remote mismatch (one pixel)", check_identical,
            _flip_pixel(raw.segment), None, raw_oracle,
        )

    for line, ok in outcomes:
        print(("ok    " if ok else "FAIL  ") + line)
    failures = sum(1 for _, ok in outcomes if not ok)
    print(f"self-test: {len(outcomes) - failures}/{len(outcomes)} cases as expected")
    return 1 if failures else 0


def _flip_pixel(segment):
    pixels = segment.pixels.copy()
    pixels.flat[0] ^= np.uint8(1)
    return dataclasses.replace(segment, pixels=pixels)
