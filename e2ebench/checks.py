"""Output checks: every answer against a computation made apart from the
read path, or against a property the answer must have.

* frame count = window x fps;
* output geometry and pixel format as requested;
* per-frame PSNR against the seeded source frames, cropped and resized by
  the plain-numpy reference in :mod:`inputs`, above a floor per output
  codec (all reads use the default qp);
* every video at or under its storage budget after each settle;
* remote answers bit-identical to the same spec read in process
  (the transport-parity oracle).

Each check raises :class:`CheckFailed`; ``run.py --self-test`` shows that
each one rejects a deliberately corrupted answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from inputs import FPS, Camera, frame_psnr, luma, reference_rgb
from repro.video.codec.container import encode_container
from repro.video.codec.registry import codec_for

#: Lowest per-frame PSNR (dB) accepted for each output codec at the
#: default qp.  The stored originals are themselves lossy (qp 14), so a raw
#: answer is one generation from the source and a re-encoded answer two;
#: measured answers sit 8-15 dB above these floors, while a corrupted
#: frame (inverted pixels) reads below 10 dB.
PSNR_FLOOR_DB = {"raw": 28.0, "h264": 26.0, "hevc": 26.0}


class CheckFailed(AssertionError):
    """An answer the benchmark cannot accept."""


@dataclass(frozen=True)
class Expect:
    """What one read must return, derived from its spec alone."""

    camera: Camera
    first_frame: int  # stream frame index of the window's first frame
    frames: int  # window seconds x fps
    codec: str
    pixel_format: str
    width: int
    height: int
    roi: tuple[int, int, int, int] | None
    resolution: tuple[int, int] | None


def expect_for(spec, camera: Camera, source_size: tuple[int, int]) -> Expect:
    """The expectation for a :class:`ReadSpec` over a looped camera."""
    frames = int(round((spec.end - spec.start) * FPS))
    if spec.resolution is not None:
        width, height = spec.resolution
    elif spec.roi is not None:
        x0, y0, x1, y1 = spec.roi
        width, height = x1 - x0, y1 - y0
    else:
        width, height = source_size
    return Expect(
        camera=camera,
        first_frame=int(round(spec.start * FPS)),
        frames=frames,
        codec=spec.codec,
        pixel_format=spec.pixel_format,
        width=width,
        height=height,
        roi=spec.roi,
        resolution=spec.resolution,
    )


def _fail(message: str) -> None:
    raise CheckFailed(message)


def check_answer(segment, gops, expect: Expect) -> float:
    """Check one answer (a raw segment or encoded GOPs); returns its
    lowest per-frame PSNR in dB."""
    if expect.codec == "raw":
        if segment is None:
            _fail("raw read answered with encoded GOPs")
        if segment.pixel_format != expect.pixel_format:
            _fail(
                f"pixel format {segment.pixel_format}, wanted "
                f"{expect.pixel_format}"
            )
        pixels = segment.pixels
        total_frames = pixels.shape[0]
        sampled = np.arange(total_frames)
        fmt = segment.pixel_format
        width, height = segment.width, segment.height
    else:
        if not gops:
            _fail(f"{expect.codec} read answered without GOPs")
        for gop in gops:
            if gop.codec != expect.codec:
                _fail(f"GOP codec {gop.codec}, wanted {expect.codec}")
            if (gop.width, gop.height) != (gops[0].width, gops[0].height):
                _fail("GOPs of one answer differ in geometry")
        # The first GOP is decoded whole; every later GOP is checked at
        # its key frame (decoding a P frame means decoding its GOP prefix).
        decoded = [
            codec_for(g.codec).decode_gop_frames(g, g.num_frames if i == 0 else 1)
            for i, g in enumerate(gops)
        ]
        pixels = np.concatenate([d.pixels for d in decoded])
        offsets = np.cumsum([0] + [g.num_frames for g in gops[:-1]])
        sampled = np.concatenate(
            [np.arange(gops[0].num_frames)] + [offsets[1:]]
        ).astype(np.int64)
        total_frames = sum(g.num_frames for g in gops)
        fmt = decoded[0].pixel_format
        width, height = gops[0].width, gops[0].height
    if (width, height) != (expect.width, expect.height):
        _fail(
            f"geometry {width}x{height}, wanted {expect.width}x{expect.height}"
        )
    if total_frames != expect.frames:
        _fail(f"{total_frames} frames, wanted {expect.frames}")
    source = expect.camera.frames(expect.first_frame, expect.frames)[sampled]
    reference = reference_rgb(source, expect.roi, expect.resolution)
    if fmt == "rgb":
        if pixels.shape[1:] != (height, width, 3):
            _fail(f"rgb frame shape {pixels.shape[1:]}")
        psnr = frame_psnr(pixels, reference)
    elif fmt == "yuv420":
        if pixels.shape[1:] != (3 * height // 2, width):
            _fail(f"yuv420 frame shape {pixels.shape[1:]}")
        psnr = frame_psnr(pixels[:, :height, :], luma(reference))
    else:
        _fail(f"unexpected pixel format {fmt}")
    lowest = float(np.min(psnr))
    floor = PSNR_FLOOR_DB[expect.codec]
    if not lowest >= floor:
        _fail(f"PSNR {lowest:.1f} dB below the {floor:.0f} dB floor")
    return lowest


def check_budget(name: str, total_bytes: int, budget_bytes: int) -> None:
    """A video with a budget must hold no more bytes than it."""
    if budget_bytes > 0 and total_bytes > budget_bytes:
        _fail(f"{name} holds {total_bytes} bytes over its {budget_bytes} budget")


def answer_fingerprint(segment, gops) -> tuple:
    """Everything a consumer sees in an answer, as comparable values."""
    if segment is not None:
        return (
            "segment",
            segment.pixel_format,
            segment.width,
            segment.height,
            segment.pixels.shape,
            segment.pixels.tobytes(),
        )
    return ("gops",) + tuple(bytes(encode_container(g)) for g in gops)


def check_identical(segment, gops, oracle: tuple) -> None:
    """A remote answer must be bit-identical to the in-process one."""
    if answer_fingerprint(segment, gops) != oracle:
        _fail("remote answer differs from the in-process answer")
