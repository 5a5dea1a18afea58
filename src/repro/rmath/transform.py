"""Affine transforms (4x4 homogeneous) for object placement and animation.

Primitives in :mod:`repro.geometry` are defined in a canonical local frame
(e.g. the unit cylinder along +Y); a :class:`Transform` places them in the
world.  Rays are intersected by transforming them into local space, which
keeps every primitive's intersection routine simple and fully vectorized.
"""

from __future__ import annotations

import numpy as np

from .aabb import AABB

__all__ = ["Transform"]


def _rows(x, a: np.ndarray) -> np.ndarray:
    """``x @ a.T`` over ``(..., 3)`` rows, each rounded as in a batch: numpy
    sends a one-row product down its matrix-vector path, whose rounding
    differs, and a ray must get the same bits alone as among others.  It
    assumes the BLAS rounds a 2-row gemm as an N-row one (pinned by
    ``test_one_row_rounds_as_in_a_batch``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 1 and x.shape[-2] == 1:
        return (np.repeat(x, 2, axis=-2) @ a.T)[..., :1, :]
    return x @ a.T


class Transform:
    """An invertible affine map ``p -> M @ p + t`` stored as a 4x4 matrix.

    Instances are immutable; composition returns new objects.  Building
    one stores ``m`` and nothing else: a scene build composes dozens, and
    only the objects a ray reaches ever need the inverse.  The inverse,
    the inverse-transpose (for normals) and the identity flag are each
    computed from ``m`` on first use and cached.
    """

    __slots__ = ("m", "_inv", "_normal_m", "_is_identity")

    def __init__(self, m: np.ndarray | None = None):
        if m is None:
            m = np.eye(4)
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError("Transform expects a 4x4 matrix")
        self.m = m
        self._inv = self._normal_m = self._is_identity = None

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = np.linalg.inv(self.m)
        return self._inv

    @property
    def normal_m(self) -> np.ndarray:
        """Normals transform by the inverse-transpose of the upper-left 3x3."""
        if self._normal_m is None:
            self._normal_m = self.inv[:3, :3].T.copy()
        return self._normal_m

    # -- constructors -----------------------------------------------------
    @staticmethod
    def identity() -> "Transform":
        return Transform()

    @staticmethod
    def translate(x: float, y: float, z: float) -> "Transform":
        m = np.eye(4)
        m[:3, 3] = (x, y, z)
        return Transform(m)

    @staticmethod
    def scale(x: float, y: float | None = None, z: float | None = None) -> "Transform":
        y = x if y is None else y
        z = x if z is None else z
        if x == 0 or y == 0 or z == 0:
            raise ValueError("scale factors must be non-zero")
        m = np.diag([x, y, z, 1.0])
        return Transform(m)

    @staticmethod
    def rotate_x(angle: float) -> "Transform":
        c, s = np.cos(angle), np.sin(angle)
        m = np.eye(4)
        m[1, 1], m[1, 2], m[2, 1], m[2, 2] = c, -s, s, c
        return Transform(m)

    @staticmethod
    def rotate_y(angle: float) -> "Transform":
        c, s = np.cos(angle), np.sin(angle)
        m = np.eye(4)
        m[0, 0], m[0, 2], m[2, 0], m[2, 2] = c, s, -s, c
        return Transform(m)

    @staticmethod
    def rotate_z(angle: float) -> "Transform":
        c, s = np.cos(angle), np.sin(angle)
        m = np.eye(4)
        m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, -s, s, c
        return Transform(m)

    @staticmethod
    def rotate_axis(axis: np.ndarray, angle: float) -> "Transform":
        """Rodrigues rotation about an arbitrary (non-zero) axis."""
        axis = np.asarray(axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if n == 0:
            raise ValueError("rotation axis must be non-zero")
        x, y, z = axis / n
        c, s = np.cos(angle), np.sin(angle)
        omc = 1.0 - c
        r = np.array(
            [
                [c + x * x * omc, x * y * omc - z * s, x * z * omc + y * s],
                [y * x * omc + z * s, c + y * y * omc, y * z * omc - x * s],
                [z * x * omc - y * s, z * y * omc + x * s, c + z * z * omc],
            ]
        )
        m = np.eye(4)
        m[:3, :3] = r
        return Transform(m)

    # -- composition -------------------------------------------------------
    def then(self, other: "Transform") -> "Transform":
        """Apply ``self`` first, then ``other`` (i.e. ``other @ self``)."""
        return Transform(other.m @ self.m)

    def __matmul__(self, other: "Transform") -> "Transform":
        """Matrix-style composition: ``(a @ b)(p) == a(b(p))``."""
        return Transform(self.m @ other.m)

    def inverse(self) -> "Transform":
        return Transform(self.inv)

    # -- application -------------------------------------------------------
    def apply_points(self, p: np.ndarray) -> np.ndarray:
        """Transform points of shape ``(..., 3)``."""
        return _rows(p, self.m[:3, :3]) + self.m[:3, 3]

    def apply_vectors(self, v: np.ndarray) -> np.ndarray:
        """Transform directions (no translation)."""
        return _rows(v, self.m[:3, :3])

    def apply_normals(self, n: np.ndarray) -> np.ndarray:
        """Transform normals by the inverse-transpose (not renormalized)."""
        return _rows(n, self.normal_m)

    def inv_points(self, p: np.ndarray) -> np.ndarray:
        return _rows(p, self.inv[:3, :3]) + self.inv[:3, 3]

    def inv_vectors(self, v: np.ndarray) -> np.ndarray:
        return _rows(v, self.inv[:3, :3])

    def apply_aabb(self, box: AABB) -> AABB:
        """Bounds of a transformed box (bounds of the 8 mapped corners).

        A box with infinite extents (planes) maps to the all-infinite box:
        a rotation can spread an infinite axis across all three, so the only
        safe tight-enough answer is "unbounded"; consumers clip it to the
        scene's voxelized region.
        """
        if box.is_empty():
            return box
        if not (np.all(np.isfinite(box.lo)) and np.all(np.isfinite(box.hi))):
            return AABB(np.full(3, -np.inf), np.full(3, np.inf))
        return AABB.from_points(self.apply_points(box.corners()))

    # -- misc ---------------------------------------------------------------
    def is_identity(self) -> bool:
        # Cached: queried once per object per ray batch on the hot path.
        # An absolute test, i.e. allclose with rtol 0: a relative tolerance
        # against the unit diagonal would classify e.g. scale(0.99999) as
        # the identity.  NaN and inf compare False.
        if self._is_identity is None:
            self._is_identity = bool(np.abs(self.m - np.eye(4)).max() <= 1e-12)
        return self._is_identity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transform({self.m.tolist()!r})"
