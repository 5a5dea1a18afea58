"""Vectorized 3-D DDA (Amanatides & Woo) grid traversal.

This is the paper's "modified 3-D DDA algorithm" that determines which
voxels every ray traverses.  The modification relevant to frame coherence is
that traversal is *clipped at the ray's hit distance*: a ray that stops at a
surface only marks the voxels between its origin and that surface, so pixel
lists stay tight.

The implementation advances an entire batch of rays in lockstep: each loop
iteration performs one DDA step for every still-active ray using pure numpy
ops, so the Python-level iteration count is bounded by the longest single
traversal (≈ nx+ny+nz steps), not by the number of rays.  The state is 1-D
per axis plus a running flat voxel id (no ``(N, 3)`` fancy indexing), and
dead rays are compacted out.  The tracer calls it once per ray class per
frame, ``chunk_size`` rays at a time.
"""

from __future__ import annotations

import numpy as np

from ..rmath import ray_aabb_intersect
from .grid import UniformGrid

__all__ = ["traverse"]


def traverse(
    grid: UniformGrid,
    origins: np.ndarray,
    dirs: np.ndarray,
    t_max: np.ndarray | float = np.inf,
) -> tuple[np.ndarray, np.ndarray]:
    """Voxels visited by each ray, clipped to ``[0, t_max]``.

    Parameters
    ----------
    grid:
        The uniform grid.
    origins, dirs:
        ``(N, 3)`` ray batch (directions need not be unit length, but ``t_max``
        is interpreted in the same parameterization).
    t_max:
        Per-ray (or scalar) traversal limit — typically the hit distance, or
        +inf for rays that escape.

    Returns
    -------
    ray_idx, voxel_id:
        Parallel int64 arrays; row ``k`` says ray ``ray_idx[k]`` visited voxel
        ``voxel_id[k]``.  Rows are step-major (every live ray's first voxel,
        then every live ray's second, ...) and ascending in ray index within
        a step, so each ray's visits come in traversal order; they are
        unique per (ray, voxel).  On a tie between axes the step crosses x
        before y before z.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n = origins.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return empty, empty
    t_max = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (n,)).copy()

    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / dirs

    hit, t_enter, t_exit = ray_aabb_intersect(
        origins, inv, grid.bounds.lo, grid.bounds.hi, t_max=t_max
    )
    ids = np.flatnonzero(hit & (t_enter <= t_exit))
    if ids.size == 0:
        return empty, empty
    origins, dirs, inv, t_exit = origins[ids], dirs[ids], inv[ids], t_exit[ids]

    # Entry points nudged inside the grid to avoid landing exactly on a face.
    entry = origins + (t_enter[ids] + 1e-12)[:, None] * dirs
    cell = grid.cell_of_points(entry)
    step = np.sign(dirs).astype(np.int64)
    # Parametric distance to cross one cell along each axis (inf for axes
    # the ray does not move along), and the t at which the ray crosses the
    # next cell boundary per axis.  A subnormal component's inverse
    # overflows: that axis never moves either (and 0 * inf would be NaN).
    t_delta = np.abs(grid.cell_size * inv)
    next_boundary = grid.bounds.lo + (cell + (step > 0)) * grid.cell_size
    with np.errstate(invalid="ignore"):
        t_next = (next_boundary - origins) * inv
    t_next = np.where(np.isfinite(inv), t_next, np.inf)

    # Per-axis state, one 1-D array per axis: cell, step, next crossing,
    # crossing spacing, and what a step adds to the flat voxel id.
    nx, ny, nz = (int(r) for r in grid.res)
    vid = grid.flatten(cell)
    cell, step, t_next, t_delta = (
        [a[:, i].copy() for i in range(3)] for a in (cell, step, t_next, t_delta)
    )
    vstep = [step[0], step[1] * nx, step[2] * (nx * ny)]
    out_ray, out_vox = [], []
    # Hard bound on steps: a straight line crosses at most nx+ny+nz+3 cells.
    for _ in range(nx + ny + nz + 3):
        out_ray.append(ids)
        out_vox.append(vid)

        # The axis whose boundary is nearest; ties go to the lower axis.
        tx, ty, tz = t_next
        on_x = (tx <= ty) & (tx <= tz)
        on_y = ~on_x & (ty <= tz)
        on = (on_x, on_y, ~(on_x | on_y))
        crossed = np.where(on_x, tx, np.where(on_y, ty, tz))
        for a in range(3):
            np.add(t_next[a], t_delta[a], out=t_next[a], where=on[a])
            np.add(cell[a], step[a], out=cell[a], where=on[a])
        vid = vid + np.where(on_x, vstep[0], np.where(on_y, vstep[1], vstep[2]))

        # A ray dies when it leaves the grid or passes its t limit at the
        # crossing it just made.
        alive = crossed <= t_exit
        for c, n_cells in zip(cell, (nx, ny, nz)):
            alive &= (c >= 0) & (c < n_cells)
        if not alive.all():
            keep = np.flatnonzero(alive)
            if keep.size == 0:
                break
            ids, vid, t_exit = ids[keep], vid[keep], t_exit[keep]
            cell, step, t_next, t_delta, vstep = (
                [a[keep] for a in arrays] for arrays in (cell, step, t_next, t_delta, vstep)
            )

    return np.concatenate(out_ray), np.concatenate(out_vox)
