"""Capped cylinder primitive (POV-Ray ``cylinder``).

The Newton's-cradle scene uses sixteen of these (the frame holding the
marbles), so cylinder intersection is a hot path in the reproduction
workload.
"""

from __future__ import annotations

import numpy as np

from ..rmath import AABB, Transform, vec3
from .base import MISS, Primitive, solve_quadratic

__all__ = ["Cylinder"]


class Cylinder(Primitive):
    """Canonical capped cylinder: radius 1, axis +Y from ``y=0`` to ``y=1``.

    Use :meth:`from_endpoints` for POV's ``cylinder { p0, p1, r }`` form.
    """

    def _hits(self, origins: np.ndarray, dirs: np.ndarray):
        """Side, bottom-cap and top-cap ``t`` (``MISS`` where not on the surface)."""
        eps = 1e-9

        ox, oy, oz = origins[..., 0], origins[..., 1], origins[..., 2]
        dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]

        # --- lateral surface: x^2 + z^2 = 1, 0 <= y <= 1
        a = dx * dx + dz * dz
        b = 2.0 * (ox * dx + oz * dz)
        c = ox * ox + oz * oz - 1.0
        _, t0, t1 = solve_quadratic(a, b, c)

        def side_valid(t: np.ndarray) -> np.ndarray:
            y = oy + t * dy
            return np.isfinite(t) & (t > eps) & (y >= 0.0) & (y <= 1.0)

        t_side = np.where(side_valid(t0), t0, np.where(side_valid(t1), t1, MISS))

        # --- caps: y = 0 and y = 1 discs of radius 1
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cap0 = (0.0 - oy) / dy
            t_cap1 = (1.0 - oy) / dy
            steep = np.abs(dy) > 1e-300

            def cap_valid(t: np.ndarray) -> np.ndarray:
                # inf * 0 -> nan rows are rejected by the isfinite guard.
                x = ox + t * dx
                z = oz + t * dz
                return np.isfinite(t) & (t > eps) & steep & (x * x + z * z <= 1.0)

            t_cap0 = np.where(cap_valid(t_cap0), t_cap0, MISS)
            t_cap1 = np.where(cap_valid(t_cap1), t_cap1, MISS)
        return t_side, t_cap0, t_cap1

    def local_hit(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        t_side, t_cap0, t_cap1 = self._hits(origins, dirs)
        return np.minimum(t_side, np.minimum(t_cap0, t_cap1))

    def local_intersect(self, origins: np.ndarray, dirs: np.ndarray):
        t_side, t_cap0, t_cap1 = self._hits(origins, dirs)
        t_cap = np.minimum(t_cap0, t_cap1)
        t = np.minimum(t_side, t_cap)

        # --- normals
        n = np.zeros(origins.shape, dtype=np.float64)
        hit_side = np.isfinite(t) & (t == t_side) & (t < t_cap)
        hit_cap = np.isfinite(t) & ~hit_side
        if np.any(hit_side):
            pts = origins[hit_side] + t[hit_side, None] * dirs[hit_side]
            ns = pts.copy()
            ns[:, 1] = 0.0
            n[hit_side] = ns
        if np.any(hit_cap):
            cap_is_top = t[hit_cap] == t_cap1[hit_cap]
            n[hit_cap, 1] = np.where(cap_is_top, 1.0, -1.0)
        return t, n

    def local_bounds(self) -> AABB:
        return AABB(vec3(-1, 0, -1), vec3(1, 1, 1))

    def may_touch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Slab test of the axis segment against each box grown by the
        cross-section's largest stretch ``r``: the capsule of radius ``r``
        around the axis, within ``(sqrt(3) - 1) r``, so a thin diagonal
        string keeps only the voxels along it."""
        m = self.transform.m
        r = np.linalg.norm(m[:3, [0, 2]], 2)
        d = m[:3, 1]
        lo, hi = lo - r - m[:3, 3], hi + r - m[:3, 3]
        with np.errstate(all="ignore"):
            t0, t1 = lo / d, hi / d
        inside = (lo <= 0.0) & (hi >= 0.0)
        enter = np.where(d == 0.0, np.where(inside, 0.0, np.inf), np.minimum(t0, t1))
        leave = np.where(d == 0.0, 1.0, np.maximum(t0, t1))
        return np.maximum(enter.max(axis=-1), 0.0) <= np.minimum(leave.min(axis=-1), 1.0)

    @staticmethod
    def from_endpoints(p0, p1, radius: float, material=None, name: str | None = None) -> "Cylinder":
        """A capped cylinder from ``p0`` to ``p1`` with the given radius."""
        if radius <= 0:
            raise ValueError("cylinder radius must be positive")
        p0 = np.asarray(p0, dtype=np.float64)
        p1 = np.asarray(p1, dtype=np.float64)
        axis = p1 - p0
        height = float(np.linalg.norm(axis))
        if height == 0:
            raise ValueError("cylinder endpoints must differ")
        axis_n = axis / height
        y = vec3(0.0, 1.0, 0.0)
        c = float(np.dot(y, axis_n))
        if c > 1.0 - 1e-12:
            rot = Transform.identity()
        elif c < -1.0 + 1e-12:
            rot = Transform.rotate_x(np.pi)
        else:
            rot = Transform.rotate_axis(np.cross(y, axis_n), np.arccos(np.clip(c, -1.0, 1.0)))
        tf = Transform.translate(*p0) @ rot @ Transform.scale(radius, height, radius)
        return Cylinder(material=material, transform=tf, name=name)
