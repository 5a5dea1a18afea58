"""The voxel -> pixel-list data structure.

This is the paper's central bookkeeping: "as rays are fired during the
rendering process, the frame coherence algorithm tracks their paths and
marks all of the voxels that they pass through ... add the pixel to the
voxel's pixel list".  Coherence is tracked at *individual pixel*
granularity (the paper's stated improvement over Jevans's pixel blocks).

Implementation: the (voxel, pixel) pairs are stored pixel-major, as a
per-pixel CSR — one voxel-id array (``int16`` when the grid has at most
32767 voxels, else ``int32``) holding every pixel's marks contiguously and
in ascending voxel order, plus an ``int32`` mark count per pixel.  A
re-rendered pixel's marks are replaced wholesale, so an update is a
per-entry keep mask (``np.repeat`` of the replaced rows over the counts)
plus a sort of the *new* batch only; the query "all pixels of these voxels"
is one gather through a voxel mask.  Everything is pure numpy — no
per-pixel Python objects.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VoxelPixelMap"]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Drop adjacent repeats of a sorted array (``np.unique`` without its hashing)."""
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


class VoxelPixelMap:
    """A many-to-many map from voxel ids to pixel ids."""

    def __init__(self, n_voxels: int, n_pixels: int):
        if n_voxels < 1 or n_pixels < 1:
            raise ValueError("n_voxels and n_pixels must be positive")
        self.n_voxels = int(n_voxels)
        self.n_pixels = int(n_pixels)
        small = self.n_voxels <= np.iinfo(np.int16).max
        self._voxels = np.empty(0, dtype=np.int16 if small else np.int32)
        self._counts = np.zeros(self.n_pixels, dtype=np.int32)

    # -- construction / update ----------------------------------------------
    def _rewrite(self, cleared: np.ndarray, voxels: np.ndarray, pixels: np.ndarray) -> None:
        """Drop the ``cleared`` pixels' marks, then add the given visits (a
        pixel gaining marks without being cleared keeps its old ones)."""
        voxels = np.asarray(voxels, dtype=np.int64)
        pixels = np.asarray(pixels, dtype=np.int64)
        if voxels.size and (voxels.min() < 0 or voxels.max() >= self.n_voxels):
            raise IndexError("voxel id out of range")
        if pixels.size and (pixels.min() < 0 or pixels.max() >= self.n_pixels):
            raise IndexError("pixel id out of range")
        rows = np.zeros(self.n_pixels, dtype=bool)
        rows[np.asarray(cleared, dtype=np.int64)] = True
        merged = np.bincount(pixels, minlength=self.n_pixels).astype(bool) & ~rows
        if merged.any():
            pixels = np.concatenate([pixels, np.repeat(np.flatnonzero(merged), self._counts[merged])])
            voxels = np.concatenate([voxels, self._voxels[np.repeat(merged, self._counts)]])
            rows |= merged
        if not rows.any():
            return
        keys = pixels * self.n_voxels
        keys += voxels
        keys.sort()
        keys = _sorted_unique(keys)  # pixel-major, ascending voxel within a pixel
        new_counts = np.bincount(keys // self.n_voxels, minlength=self.n_pixels)
        counts = np.where(rows, new_counts, self._counts).astype(np.int32)
        # Slot masks: the rewritten rows' slots, in pixel order, take the new
        # batch; every other slot keeps its old mark, in order.
        out = np.empty(int(counts.sum()), dtype=self._voxels.dtype)
        fresh = np.repeat(rows, counts)
        out[fresh] = keys % self.n_voxels
        out[~fresh] = self._voxels[~np.repeat(rows, self._counts)]
        self._voxels, self._counts = out, counts

    def add_marks(self, voxels: np.ndarray, pixels: np.ndarray) -> None:
        """Insert (voxel, pixel) visits; duplicates are coalesced."""
        self._rewrite(np.empty(0, dtype=np.int64), voxels, pixels)

    def remove_pixels(self, pixels: np.ndarray) -> None:
        """Drop every mark belonging to the given pixels.

        Called right before a set of pixels is re-rendered: their old ray
        paths are obsolete and will be replaced by fresh marks.
        """
        self._rewrite(pixels, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def replace_pixel_marks(self, pixels: np.ndarray, mark_voxels: np.ndarray, mark_pixels: np.ndarray) -> None:
        """Atomic remove-then-add for a re-rendered pixel set."""
        self._rewrite(pixels, mark_voxels, mark_pixels)

    # -- queries -----------------------------------------------------------
    def pixels_for_voxels(self, voxels: np.ndarray) -> np.ndarray:
        """Sorted unique pixel ids recorded against any of the given voxels.

        This is the paper's "mark those pixels on the pixel list of the
        changed voxels for recomputation".
        """
        voxels = np.asarray(voxels, dtype=np.int64)
        if voxels.size == 0 or self._voxels.size == 0:
            return np.empty(0, dtype=np.int64)
        wanted = np.zeros(self.n_voxels, dtype=bool)
        wanted[voxels] = True
        hits = np.flatnonzero(wanted[self._voxels])
        # A hit's pixel is the first row ending past it; hits ascend, so rows do.
        rows = np.searchsorted(np.cumsum(self._counts, dtype=np.int64), hits, side="right")
        return _sorted_unique(rows)

    def voxels_of_pixel(self, pixel: int) -> np.ndarray:
        """All voxels that rays of ``pixel`` traverse, ascending."""
        start = int(self._counts[: int(pixel)].sum())
        return self._voxels[start : start + int(self._counts[int(pixel)])].astype(np.int64)

    @property
    def n_entries(self) -> int:
        return int(self._voxels.size)

    def memory_bytes(self) -> int:
        """Resident size of the map's arrays — the paper's per-node memory
        argument (frame division needs memory proportional to the subarea)
        is modeled from this."""
        return int(self._voxels.nbytes + self._counts.nbytes)

    def copy(self) -> "VoxelPixelMap":
        """An independent deep copy of the map."""
        m = VoxelPixelMap(self.n_voxels, self.n_pixels)
        m._voxels, m._counts = self._voxels.copy(), self._counts.copy()
        return m

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VoxelPixelMap(entries={self.n_entries})"
