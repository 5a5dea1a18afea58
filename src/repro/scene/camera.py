"""Pinhole camera.

The camera generates primary ("camera") rays for *arbitrary subsets of
pixels*, addressed by flat framebuffer index.  That interface is what the
frame-coherence renderer needs: after the first frame only the dirty pixels
are re-shot, and what the frame-division partitioner needs: a worker shoots
only its 80x80 block.

Pixel convention: row-major, origin at the top-left, pixel centers at
``(x + 0.5, y + 0.5)``.  The paper's workload is 320x240 ("76,800 independent
calculations ... one for each pixel").
"""

from __future__ import annotations

import numpy as np

from ..geometry import RayBatch, RayKind
from ..rmath import cross, normalize

__all__ = ["Camera"]


class Camera:
    """A look-at pinhole camera.

    Parameters
    ----------
    position, look_at:
        Eye point and target point.
    up:
        Approximate up vector (re-orthogonalized).
    fov_degrees:
        Horizontal field of view.
    width, height:
        Image resolution in pixels.
    """

    def __init__(
        self,
        position,
        look_at,
        up=(0.0, 1.0, 0.0),
        fov_degrees: float = 60.0,
        width: int = 320,
        height: int = 240,
    ):
        if width <= 0 or height <= 0:
            raise ValueError("image dimensions must be positive")
        if not (0.0 < fov_degrees < 180.0):
            raise ValueError("fov must be in (0, 180) degrees")
        self.position = np.asarray(position, dtype=np.float64).reshape(3)
        self.look_at = np.asarray(look_at, dtype=np.float64).reshape(3)
        self.width = int(width)
        self.height = int(height)
        self.fov_degrees = float(fov_degrees)

        forward = self.look_at - self.position
        if np.linalg.norm(forward) == 0:
            raise ValueError("camera position and look_at coincide")
        self._w = normalize(forward)
        up = np.asarray(up, dtype=np.float64).reshape(3)
        right = cross(self._w, up)
        if np.linalg.norm(right) == 0:
            raise ValueError("up vector is parallel to the view direction")
        self._u = normalize(right)
        self._v = cross(self._u, self._w)

        half_width = np.tan(np.radians(self.fov_degrees) / 2.0)
        self._half_w = half_width
        self._half_h = half_width * self.height / self.width

    def same_rays(self, other: "Camera") -> bool:
        """Whether ``other`` shoots bit-identical rays: every value
        :meth:`rays_for_pixels` reads compares exactly (roll reaches the
        rays through the basis, not through ``position`` or ``look_at``)."""
        ray_inputs = ("width", "height", "position", "_u", "_v", "_w", "_half_w", "_half_h")
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in ray_inputs)

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def pixel_grid(self) -> np.ndarray:
        """All flat pixel indices, row-major."""
        return np.arange(self.n_pixels, dtype=np.int64)

    def rays_for_pixels(self, pixel_ids: np.ndarray) -> RayBatch:
        """Camera rays through the centers of the given flat pixel indices."""
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64).ravel()
        if pixel_ids.size and (pixel_ids.min() < 0 or pixel_ids.max() >= self.n_pixels):
            raise ValueError("pixel index out of range")
        px = (pixel_ids % self.width).astype(np.float64) + 0.5
        py = (pixel_ids // self.width).astype(np.float64) + 0.5
        # NDC in [-1, 1], y flipped so +v is up in the image.
        sx = (px / self.width) * 2.0 - 1.0
        sy = 1.0 - (py / self.height) * 2.0
        dirs = (
            self._w
            + sx[:, None] * (self._half_w * self._u)
            + sy[:, None] * (self._half_h * self._v)
        )
        origins = np.broadcast_to(self.position, (pixel_ids.size, 3)).copy()
        weights = np.ones((pixel_ids.size, 3), dtype=np.float64)
        return RayBatch.normalized(
            origins, dirs, pixel_ids, weights, kind=RayKind.CAMERA, depth=0
        )

    def all_rays(self) -> RayBatch:
        """Camera rays for the full frame."""
        return self.rays_for_pixels(self.pixel_grid())

    def with_resolution(self, width: int, height: int) -> "Camera":
        """Same viewpoint at a different resolution (used by benchmarks)."""
        return Camera(
            self.position,
            self.look_at,
            up=self._v,
            fov_degrees=self.fov_degrees,
            width=width,
            height=height,
        )
