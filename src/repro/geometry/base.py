"""Primitive base class and shared intersection helpers.

Primitives are defined in a canonical local frame and placed in the world by
a :class:`~repro.rmath.Transform`.  Rays are intersected by mapping them into
local space *without renormalizing* the local direction, so the parametric
``t`` is identical in both frames and hit points can be reconstructed on the
world-space ray directly.

Intersection routines are batched: they take ``(N, 3)`` origin/direction
arrays and return ``(t, normal)`` where ``t`` is ``inf`` for misses.  The
returned normal is geometric (not oriented toward the ray); the shader
orients it; ``local_hit`` is the ``t``-only half.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod

import numpy as np

from ..rmath import AABB, Transform, normalize

__all__ = ["Primitive", "solve_quadratic", "MISS"]

#: Parametric value used to signal "no intersection".
MISS = np.inf

_id_counter = itertools.count()


def solve_quadratic(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized roots of ``a t^2 + b t + c = 0``.

    Returns ``(valid, t0, t1)`` with ``t0 <= t1``; rows with no real root (or
    a degenerate ``a == 0``) have ``valid`` False and ``t`` values of +inf.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    disc = b * b - 4.0 * a * c
    valid = (disc >= 0.0) & (np.abs(a) > 1e-300)
    sq = np.sqrt(np.where(valid, disc, 0.0))
    # Numerically stable form: q = -(b + sign(b)*sqrt(disc)) / 2
    q = -0.5 * (b + np.copysign(sq, b))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r0 = q / a
        r1 = c / q
    t0 = np.where(valid, np.minimum(r0, r1), MISS)
    t1 = np.where(valid, np.maximum(r0, r1), MISS)
    # q == 0 happens when b == 0 and disc == 0: double root at t = 0.
    degenerate_q = valid & (q == 0.0)
    t0 = np.where(degenerate_q, 0.0, t0)
    t1 = np.where(degenerate_q, 0.0, t1)
    return valid, t0, t1


class Primitive(ABC):
    """A renderable object: canonical shape + placement + material.

    Parameters
    ----------
    material:
        A :class:`repro.materials.Material`; may be None for substrate-only
        use (e.g. occlusion tests), in which case shading raises.
    transform:
        Local-to-world placement.  Defaults to identity.
    name:
        Optional identifier used in logs and tests.
    """

    def __init__(self, material=None, transform: Transform | None = None, name: str | None = None):
        self.material = material
        self.transform = transform if transform is not None else Transform.identity()
        self.prim_id = next(_id_counter)
        self.name = name if name is not None else f"{type(self).__name__.lower()}#{self.prim_id}"

    # -- canonical-frame interface (implemented by subclasses) -------------
    @abstractmethod
    def local_intersect(self, origins: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest positive hit in local space: ``(t (N,), normal (N, 3))``.

        ``dirs`` is *not* necessarily unit length.  Misses get ``t = inf``
        (normal rows for misses are arbitrary).
        """

    def local_hit(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """``t`` of :meth:`local_intersect` alone.  An override also takes a
        leading object axis, ``(M, N, 3)`` rays to ``(M, N)``, for stacked calls."""
        return self.local_intersect(origins, dirs)[0]

    @abstractmethod
    def local_bounds(self) -> AABB:
        """Canonical-frame bounding box (may have infinite extents)."""

    # -- world-frame interface ----------------------------------------------
    def intersect(self, origins: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World-space batched intersection: ``(t (N,), world normal (N, 3))``."""
        t, n = self.local_intersect(*self.local_rays(origins, dirs))
        return t, self.world_normals(n)

    def local_rays(self, origins: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World rays in the canonical frame (directions keep their length)."""
        tf = self.transform
        return (origins, dirs) if tf.is_identity() else (tf.inv_points(origins), tf.inv_vectors(dirs))

    def world_normals(self, n: np.ndarray) -> np.ndarray:
        """Unit world normals from canonical-frame ones."""
        tf = self.transform
        return normalize(n if tf.is_identity() else tf.apply_normals(n))

    def bounds(self) -> AABB:
        """World-space bounding box, computed once per placement."""
        placed = self.__dict__.get("_placed_bounds")
        if placed is None or placed[0] is not self.transform:
            box = self.transform.apply_aabb(self.local_bounds())
            placed = self._placed_bounds = (self.transform, box)
        return placed[1]

    def may_touch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Conservative: False only where the object surely misses the box
        ``[lo[i], hi[i]]`` (``(N, 3)`` corners, each within the world bounds
        change detection took).  The default is no tighter: every box passes."""
        return np.ones(len(lo), dtype=bool)

    def with_transform(self, transform: Transform) -> "Primitive":
        """A shallow copy placed by ``transform`` (shares shape + material).

        Used by the animation system: per-frame instances are cheap because
        canonical geometry arrays are shared.
        """
        import copy

        clone = copy.copy(self)
        clone.transform = transform
        # Keep the prim_id: the coherence engine identifies "the same object
        # across frames" by id, which is how motion is detected.
        return clone

    def moved_by(self, extra: Transform) -> "Primitive":
        """A copy with ``extra`` applied after the current placement."""
        return self.with_transform(extra @ self.transform)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
