"""Uniform spatial subdivision (voxel grid).

The paper divides object space "into voxels (or cubes) through uniform
spatial subdivision"; rays are tracked through the grid with a modified
3-D DDA and each voxel keeps a list of the pixels whose rays traverse it.
This module provides the grid geometry: world/voxel coordinate mapping and
AABB voxelization (used by change detection).
"""

from __future__ import annotations

import numpy as np

from ..rmath import AABB

__all__ = ["UniformGrid"]


class UniformGrid:
    """A ``(nx, ny, nz)`` lattice of axis-aligned voxels over ``bounds``.

    Flat voxel ids are row-major: ``vid = (iz * ny + iy) * nx + ix``.
    """

    def __init__(self, bounds: AABB, resolution: tuple[int, int, int] | int):
        if isinstance(resolution, int):
            resolution = (resolution, resolution, resolution)
        self.res = np.asarray(resolution, dtype=np.int64)
        if np.any(self.res < 1):
            raise ValueError("grid resolution must be >= 1 on every axis")
        if bounds.is_empty() or np.any(bounds.extent <= 0):
            raise ValueError("grid bounds must have positive volume")
        self.bounds = bounds
        self.cell_size = bounds.extent / self.res
        self.n_voxels = int(self.res.prod())

    # -- coordinate mapping --------------------------------------------------
    def cell_of_points(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates ``(N, 3)`` of world points, clipped."""
        p = np.asarray(points, dtype=np.float64)
        rel = (p - self.bounds.lo) / self.cell_size
        cells = np.floor(rel).astype(np.int64)
        return np.clip(cells, 0, self.res - 1)

    def flatten(self, cells: np.ndarray) -> np.ndarray:
        """Flat voxel ids from ``(N, 3)`` integer coordinates."""
        c = np.asarray(cells, dtype=np.int64)
        return (c[..., 2] * self.res[1] + c[..., 1]) * self.res[0] + c[..., 0]

    def unflatten(self, vids: np.ndarray) -> np.ndarray:
        """Integer coordinates ``(N, 3)`` from flat voxel ids."""
        v = np.asarray(vids, dtype=np.int64)
        ix = v % self.res[0]
        rest = v // self.res[0]
        iy = rest % self.res[1]
        iz = rest // self.res[1]
        return np.stack([ix, iy, iz], axis=-1)

    def voxel_bounds(self, vid: int) -> AABB:
        """World-space box of one voxel."""
        c = self.unflatten(np.asarray([vid]))[0]
        lo = self.bounds.lo + c * self.cell_size
        return AABB(lo, lo + self.cell_size)

    # -- voxelization ---------------------------------------------------------
    def voxels_overlapping(self, box: AABB) -> np.ndarray:
        """Flat ids of all voxels intersecting ``box`` (clipped to the grid)."""
        if box.is_empty():
            return np.empty(0, dtype=np.int64)
        lo = np.maximum(box.lo, self.bounds.lo)
        hi = np.minimum(box.hi, self.bounds.hi)
        if np.any(lo > hi):
            return np.empty(0, dtype=np.int64)
        c_lo = self.cell_of_points(lo[None, :])[0]
        # hi sitting exactly on a cell boundary should not spill into the
        # next cell; nudge inward by a hair before flooring.
        c_hi = self.cell_of_points((hi - 1e-12 * np.maximum(self.cell_size, 1e-30))[None, :])[0]
        c_hi = np.maximum(c_hi, c_lo)
        xs = np.arange(c_lo[0], c_hi[0] + 1)
        ys = np.arange(c_lo[1], c_hi[1] + 1)
        zs = np.arange(c_lo[2], c_hi[2] + 1)
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        cells = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)
        return self.flatten(cells)

    @staticmethod
    def for_scene(scene, resolution: tuple[int, int, int] | int = 16) -> "UniformGrid":
        """Grid over a scene's voxelizable region (see ``Scene.world_bounds``)."""
        return UniformGrid(scene.world_bounds(), resolution)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformGrid(res={tuple(self.res)}, n_voxels={self.n_voxels})"
