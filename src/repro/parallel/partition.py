"""Data partitioning schemes (Section 3 / Figure 4 of the paper).

Two axes of decomposition:

* **Sequence division** (Figure 4a) — the *time* axis: each processor gets a
  contiguous subsequence of whole frames, preserving coherence inside the
  subsequence.
* **Frame division** (Figure 4b) — the *image* axis: each processor gets a
  subarea of every frame for the entire animation (the paper uses 80x80
  pixel blocks), preserving coherence inside the subarea and cutting
  per-node memory ("memory requirements are directly proportional to the
  size of the image area").
* **Hybrid division** — both axes at once ("each processor computes pixels
  in a subarea of a frame for a subsequence of the entire animation"): the
  simulator's ``hybrid-fc`` strategy (:mod:`repro.sched.core`) builds its
  block x frame-chunk chains itself.
* **Pixel division** — the degenerate extreme the paper warns about ("we
  could assign each processor a single pixel ... the overhead of message
  passing ... would result in inefficiency").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PixelRegion",
    "block_regions",
    "default_block_layout",
    "pixel_regions",
    "sequence_ranges",
    "region_grid_shape",
]


@dataclass(frozen=True)
class PixelRegion:
    """A rectangular subarea of the frame.

    ``pixels`` are the flat row-major framebuffer indices of the region;
    ``label`` identifies it in traces and Figure-4 style layouts.
    """

    x0: int
    y0: int
    x1: int  # exclusive
    y1: int  # exclusive
    width: int  # frame width (for flat indexing)
    label: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.x0 < self.x1) or not (0 <= self.y0 < self.y1):
            raise ValueError("degenerate region")
        if self.x1 > self.width:
            raise ValueError("region exceeds frame width")

    @property
    def n_pixels(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def pixels(self) -> np.ndarray:
        xs = np.arange(self.x0, self.x1, dtype=np.int64)
        ys = np.arange(self.y0, self.y1, dtype=np.int64)
        gy, gx = np.meshgrid(ys, xs, indexing="ij")
        return (gy * self.width + gx).ravel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PixelRegion({self.label or 'region'} [{self.x0}:{self.x1})x[{self.y0}:{self.y1}))"


def block_regions(width: int, height: int, block_w: int = 80, block_h: int = 80) -> list[PixelRegion]:
    """Tile the frame into ``block_w x block_h`` blocks (edge blocks clipped).

    The paper's frame-division experiments use 80x80 blocks of a 320x240
    frame — "now we have more subareas than processors, so whenever a
    processor finishes its sequence, it can request another one".
    """
    if block_w < 1 or block_h < 1:
        raise ValueError("block dimensions must be positive")
    regions = []
    for y0 in range(0, height, block_h):
        for x0 in range(0, width, block_w):
            regions.append(
                PixelRegion(
                    x0=x0,
                    y0=y0,
                    x1=min(x0 + block_w, width),
                    y1=min(y0 + block_h, height),
                    width=width,
                    label=f"block({x0},{y0})",
                )
            )
    return regions


def default_block_layout(width: int, height: int) -> list[PixelRegion]:
    """The canonical farm/simulator block tiling.

    The paper renders 320x240 frames in 80x80 blocks — a 4x3 grid; scaled
    to any resolution that is ``width//4 x height//3`` blocks.  Both the
    simulator (:func:`repro.sched.sim.simulate`) and the real farm's
    frame-division layout call this, so the two systems always partition
    identically.
    """
    return block_regions(width, height, block_w=max(1, width // 4), block_h=max(1, height // 3))


def pixel_regions(width: int, height: int) -> list[PixelRegion]:
    """One region per pixel — the message-passing-overhead extreme."""
    return [
        PixelRegion(x, y, x + 1, y + 1, width, label=f"px({x},{y})")
        for y in range(height)
        for x in range(width)
    ]


def sequence_ranges(n_frames: int, n_parts: int, weights: list[float] | None = None) -> list[tuple[int, int]]:
    """Contiguous half-open frame ranges, one per processor (Figure 4a).

    ``weights`` (e.g. machine speeds) skew the initial split so a faster
    processor starts with proportionally more frames.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    n_parts = min(n_parts, n_frames)
    if weights is None:
        weights = [1.0] * n_parts
    if len(weights) < n_parts or any(w <= 0 for w in weights[:n_parts]):
        raise ValueError("need a positive weight per part")
    w = np.asarray(weights[:n_parts], dtype=np.float64)
    cuts = np.round(np.cumsum(w) / w.sum() * n_frames).astype(int)
    ranges: list[tuple[int, int]] = []
    start = 0
    for c in cuts:
        stop = max(int(c), start + 1) if start < n_frames else start
        stop = min(stop, n_frames)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    if ranges:
        last_start = ranges[-1][0]
        ranges[-1] = (last_start, n_frames)
    return ranges


def region_grid_shape(regions: list[PixelRegion]) -> tuple[int, int]:
    """(columns, rows) of a rectangular tiling (for Figure-4 layouts)."""
    xs = sorted({r.x0 for r in regions})
    ys = sorted({r.y0 for r in regions})
    return len(xs), len(ys)
