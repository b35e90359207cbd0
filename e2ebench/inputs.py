"""Seeded inputs and the plain-numpy reference the output checks use.

Every camera is a Visual-Road-style synthetic rig camera at the 1K class
(192x108, 30 fps).  Rendering is the expensive part of making inputs, so
each camera renders a short clip once, before any clock starts, and loops
it: the frame shown at stream frame ``k`` is clip frame
``(k + offset) % len(clip)``.  GOPs never reference each other, so a
looped camera costs the store exactly what a camera with fresh content
would.

The rendered scenes are fixed (one scene seed per rig), so the work a
frame costs does not change from seed to seed; the workload seed picks
each camera's whole-second offset into its clip and, in the workloads,
the operation sequence.

The reference path here never calls into the program's resampler or
colour conversion: it is a textbook bilinear resize with pixel-centre
alignment and BT.601 full-range luma, written out in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synthetic import visualroad
from repro.video.frame import VideoSegment

FPS = 30
#: The rig's resolution class and its (width, height).
RESOLUTION_CLASS = "1K"
WIDTH, HEIGHT = 192, 108


@dataclass
class Camera:
    """One looped camera: its rendered clip (RGB) and stream name."""

    name: str
    clip: np.ndarray  # (frames, H, W, 3) uint8
    offset: int = 0  # clip frame shown at stream frame 0

    @property
    def clip_frames(self) -> int:
        return int(self.clip.shape[0])

    def frames(self, first: int, count: int) -> np.ndarray:
        """Stream frames ``[first, first + count)`` (looping the clip)."""
        index = (np.arange(first, first + count) + self.offset) % self.clip_frames
        return self.clip[index]

    def segment(self, first: int, count: int) -> VideoSegment:
        """Stream frames as an RGB segment stamped at their stream time."""
        return VideoSegment(
            pixels=np.ascontiguousarray(self.frames(first, count)),
            pixel_format="rgb",
            height=HEIGHT,
            width=WIDTH,
            fps=float(FPS),
            start_time=first / FPS,
        )


def render_rig(
    scene_seed: int, seconds: int, names: tuple[str, str], rng
) -> list[Camera]:
    """Render both cameras of one overlapping rig for ``seconds``; ``rng``
    (the workload's seeded generator) picks each camera's clip offset."""
    dataset = visualroad(
        RESOLUTION_CLASS, overlap=0.3, num_frames=FPS * seconds, seed=scene_seed
    )
    return [
        Camera(
            name,
            np.ascontiguousarray(segment.pixels),
            offset=FPS * int(rng.integers(0, seconds)),
        )
        for name, segment in zip(names, dataset.videos())
    ]


def raw_nbytes(frames: int, width: int = WIDTH, height: int = HEIGHT) -> int:
    """Raw RGB bytes of ``frames`` frames (the storage-cost denominator)."""
    return frames * width * height * 3


# ----------------------------------------------------------------------
# reference resampling and quality
# ----------------------------------------------------------------------
def _bilinear_weights(old: int, new: int) -> np.ndarray:
    """The (new, old) matrix of bilinear weights with pixel centres
    aligned: output sample i sits at input coordinate (i + 0.5) * old / new
    - 0.5, clamped to the edge samples."""
    weights = np.zeros((new, old), dtype=np.float32)
    centres = (np.arange(new, dtype=np.float64) + 0.5) * old / new - 0.5
    centres = np.clip(centres, 0.0, old - 1)
    low = np.floor(centres).astype(np.int64)
    high = np.minimum(low + 1, old - 1)
    frac = centres - low
    rows = np.arange(new)
    np.add.at(weights, (rows, low), 1.0 - frac)
    np.add.at(weights, (rows, high), frac)
    return weights


def reference_rgb(
    frames: np.ndarray,
    roi: tuple[int, int, int, int] | None,
    resolution: tuple[int, int] | None,
) -> np.ndarray:
    """Source frames cropped to ``roi`` (x0, y0, x1, y1) and resized to
    ``resolution`` (width, height), as float32 RGB."""
    if roi is not None:
        x0, y0, x1, y1 = roi
        frames = frames[:, y0:y1, x0:x1]
    out = frames.astype(np.float32)
    if resolution is not None and resolution != (out.shape[2], out.shape[1]):
        width, height = resolution
        rows = _bilinear_weights(out.shape[1], height)
        cols = _bilinear_weights(out.shape[2], width)
        planes = np.moveaxis(out, 3, 1)  # (n, c, h, w)
        planes = rows @ planes @ cols.T
        out = np.moveaxis(planes, 1, 3)
    return out


def luma(rgb: np.ndarray) -> np.ndarray:
    """BT.601 full-range luma of an RGB stack."""
    return 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]


def frame_psnr(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Per-frame PSNR (dB) of two equally shaped stacks; inf where equal."""
    diff = actual.astype(np.float32) - expected.astype(np.float32)
    axes = tuple(range(1, diff.ndim))
    mse = np.mean(diff * diff, axis=axes)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10((255.0 * 255.0) / mse)
