"""Framebuffer: a flat RGB image addressed by pixel index.

The coherence engine keeps one persistent framebuffer per sequence and
scatters freshly computed dirty pixels into it; unchanged pixels carry over
verbatim, which is exactly the paper's "do not need to be re-computed"
copy-forward.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Framebuffer"]


class Framebuffer:
    """An ``(H*W, 3)`` float64 image with flat-index pixel access."""

    def __init__(self, width: int, height: int):
        if width <= 0 or height <= 0:
            raise ValueError("framebuffer dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        self.data = np.zeros((self.width * self.height, 3), dtype=np.float64)

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def scatter(self, pixel_ids: np.ndarray, colors: np.ndarray) -> None:
        """Overwrite the given pixels with ``colors`` (``(K, 3)``)."""
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
        colors = np.asarray(colors, dtype=np.float64)
        if pixel_ids.size and (pixel_ids.min() < 0 or pixel_ids.max() >= self.n_pixels):
            raise IndexError("pixel index out of range")
        self.data[pixel_ids] = colors

    def accumulate(self, pixel_ids: np.ndarray, colors: np.ndarray) -> None:
        """Add ``colors`` into the given pixels (duplicates sum correctly)."""
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
        np.add.at(self.data, pixel_ids, np.asarray(colors, dtype=np.float64))

    def gather(self, pixel_ids: np.ndarray) -> np.ndarray:
        return self.data[np.asarray(pixel_ids, dtype=np.int64)].copy()

    def as_image(self) -> np.ndarray:
        """``(H, W, 3)`` float view-copy of the buffer."""
        return self.data.reshape(self.height, self.width, 3).copy()

    def to_uint8(self) -> np.ndarray:
        """Tonemapped 24-bit image (simple clamp, like POV's default)."""
        return (np.clip(self.data, 0.0, 1.0).reshape(self.height, self.width, 3) * 255.0 + 0.5).astype(
            np.uint8
        )

    def copy(self) -> "Framebuffer":
        fb = Framebuffer(self.width, self.height)
        fb.data[:] = self.data
        return fb
