"""Unit sphere primitive (POV-Ray ``sphere``)."""

from __future__ import annotations

import numpy as np

from ..rmath import AABB, Transform, dot, vec3
from .base import MISS, Primitive, solve_quadratic

__all__ = ["Sphere"]


class Sphere(Primitive):
    """Canonical sphere: center at the origin, radius 1.

    Use :meth:`at` for the familiar center/radius construction; animation
    moves spheres by replacing the transform (see ``Primitive.with_transform``).
    """

    def local_hit(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        a = dot(dirs, dirs)
        b = 2.0 * dot(origins, dirs)
        c = dot(origins, origins) - 1.0
        _, t0, t1 = solve_quadratic(a, b, c)
        eps = 1e-9
        return np.where(t0 > eps, t0, np.where(t1 > eps, t1, MISS))

    def local_intersect(self, origins: np.ndarray, dirs: np.ndarray):
        t = self.local_hit(origins, dirs)
        with np.errstate(invalid="ignore"):  # inf * 0 on miss rows
            pts = origins + t[..., None] * dirs
        # The local normal of a unit sphere is the hit point itself.
        n = np.where(np.isfinite(t)[..., None], pts, 0.0)
        return t, n

    def local_bounds(self) -> AABB:
        return AABB(vec3(-1, -1, -1), vec3(1, 1, 1))

    def may_touch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Boxes within the transform's largest stretch of the centre: exact
        for a similarity placement, a covering ball otherwise."""
        m = self.transform.m
        gap = np.maximum(lo - m[:3, 3], 0.0) + np.maximum(m[:3, 3] - hi, 0.0)
        return (gap * gap).sum(axis=-1) <= np.linalg.norm(m[:3, :3], 2) ** 2

    @staticmethod
    def at(center, radius: float, material=None, name: str | None = None) -> "Sphere":
        """A sphere with explicit world-space center and radius."""
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        cx, cy, cz = np.asarray(center, dtype=np.float64)
        tf = Transform.translate(cx, cy, cz) @ Transform.scale(radius)
        return Sphere(material=material, transform=tf, name=name)
