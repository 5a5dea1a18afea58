"""Axis-aligned bounding boxes.

AABBs are the currency between the geometry layer, the uniform grid and the
frame-coherence change detector: every primitive reports its bounds per
frame, and the coherence engine diffs bounds between frames to find changed
voxels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AABB", "union", "ray_aabb_intersect"]


@dataclass(frozen=True)
class AABB:
    """An axis-aligned box ``[lo, hi]`` with inclusive corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))
        if self.lo.shape != (3,) or self.hi.shape != (3,):
            raise ValueError("AABB corners must be 3-vectors")

    @staticmethod
    def empty() -> "AABB":
        """The identity for :func:`union`: contains nothing."""
        return AABB(np.full(3, np.inf), np.full(3, -np.inf))

    @staticmethod
    def from_points(points: np.ndarray) -> "AABB":
        """Tight bounds of an ``(n, 3)`` point cloud."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if pts.shape[0] == 0:
            return AABB.empty()
        return AABB(pts.min(axis=0), pts.max(axis=0))

    def is_empty(self) -> bool:
        return bool(np.any(self.lo > self.hi))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def extent(self) -> np.ndarray:
        return np.maximum(self.hi - self.lo, 0.0)

    @property
    def surface_area(self) -> float:
        e = self.extent
        return float(2.0 * (e[0] * e[1] + e[1] * e[2] + e[2] * e[0]))

    @property
    def volume(self) -> float:
        e = self.extent
        return float(e[0] * e[1] * e[2])

    def contains_point(self, p: np.ndarray) -> np.ndarray:
        """Boolean containment test for points of shape ``(..., 3)``."""
        p = np.asarray(p, dtype=np.float64)
        return np.all((p >= self.lo) & (p <= self.hi), axis=-1)

    def overlaps(self, other: "AABB") -> bool:
        """True when the two boxes share any volume (touching counts)."""
        if self.is_empty() or other.is_empty():
            return False
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def expanded(self, margin: float) -> "AABB":
        """Uniformly grow the box by ``margin`` on every side."""
        if self.is_empty():
            return self
        m = np.full(3, float(margin))
        return AABB(self.lo - m, self.hi + m)

    def union(self, other: "AABB") -> "AABB":
        return union(self, other)

    def corners(self) -> np.ndarray:
        """All 8 corner points as an ``(8, 3)`` array, x slowest."""
        return np.where(_CORNER_BITS, self.hi, self.lo)


#: Which corners take ``hi`` on each axis: row ``i`` is the bits of ``i``.
_CORNER_BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0]) & 1).astype(bool)


def union(a: AABB, b: AABB) -> AABB:
    """Smallest box containing both ``a`` and ``b``."""
    return AABB(np.minimum(a.lo, b.lo), np.maximum(a.hi, b.hi))


def ray_aabb_intersect(
    origins: np.ndarray,
    inv_dirs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    t_max: np.ndarray | float = np.inf,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized slab test for ray batches against one box.

    Parameters
    ----------
    origins, inv_dirs:
        ``(n, 3)`` ray origins and reciprocal directions (``1/d``; infinities
        for zero components are fine and handled by the slab method).
    lo, hi:
        Box corners, broadcastable against the rays.
    t_max:
        Upper clip on the parametric interval (e.g. hit distance).

    Returns
    -------
    hit : ``(n,)`` bool mask
    t_enter, t_exit : parametric interval, clipped to ``[0, t_max]``.
    """
    origins = np.asarray(origins, dtype=np.float64)
    inv_dirs = np.asarray(inv_dirs, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf -> NaN rows
        t0 = (lo - origins) * inv_dirs
        t1 = (hi - origins) * inv_dirs
    # NaNs appear when origin sits exactly on a slab with zero direction;
    # fmin/fmax suppress them in favour of the finite operand.
    t_small = np.fmin(t0, t1)
    t_big = np.fmax(t0, t1)
    t_enter = np.max(t_small, axis=-1)
    t_exit = np.min(t_big, axis=-1)
    t_enter = np.maximum(t_enter, 0.0)
    t_exit = np.minimum(t_exit, t_max)
    hit = t_enter <= t_exit
    return hit, t_enter, t_exit
