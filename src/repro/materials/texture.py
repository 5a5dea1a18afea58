"""Procedural 3-D textures (POV-Ray pigment patterns).

Textures map world-space points (``(N, 3)``) to RGB colors (``(N, 3)``,
components in [0, 1]).  They are pure functions of position, so coherent
re-rendering of an unchanged pixel is guaranteed to reproduce the same
color — the exactness invariant the paper relies on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..rmath import Transform

__all__ = [
    "Texture",
    "SolidColor",
    "Checker",
    "Brick",
]


class Texture(ABC):
    """Maps batches of world points to RGB colors."""

    def __init__(self, transform: Transform | None = None):
        #: Optional pattern-space transform (POV's ``scale``/``rotate`` on pigments).
        self.transform = transform

    @abstractmethod
    def color_local(self, p: np.ndarray) -> np.ndarray:
        """Color at pattern-space points ``p`` of shape ``(N, 3)``."""

    def color_at(self, p: np.ndarray) -> np.ndarray:
        """Color at world points, honoring the pattern transform."""
        p = np.asarray(p, dtype=np.float64)
        if self.transform is not None:
            p = self.transform.inv_points(p)
        return self.color_local(p)

    def scaled(self, s: float) -> "Texture":
        """Convenience: return self with an additional uniform pattern scale."""
        extra = Transform.scale(s)
        self.transform = extra if self.transform is None else extra @ self.transform
        return self


def _as_rgb(c) -> np.ndarray:
    rgb = np.asarray(c, dtype=np.float64).reshape(3)
    if np.any(rgb < 0.0):
        raise ValueError("color components must be non-negative")
    return rgb


class SolidColor(Texture):
    """A constant color."""

    def __init__(self, color, transform: Transform | None = None):
        super().__init__(transform)
        self.color = _as_rgb(color)

    def color_local(self, p: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.color, (p.shape[0], 3)).copy()


class Checker(Texture):
    """POV ``checker``: unit cubes alternating between two colors."""

    def __init__(self, color_a, color_b, transform: Transform | None = None):
        super().__init__(transform)
        self.color_a = _as_rgb(color_a)
        self.color_b = _as_rgb(color_b)

    def color_local(self, p: np.ndarray) -> np.ndarray:
        # POV floors each coordinate with a tiny bias so surfaces lying on
        # integer planes (e.g. a floor at y=0) are stable.
        cells = np.floor(p + 1e-7).astype(np.int64)
        parity = (cells.sum(axis=-1) & 1).astype(bool)
        return np.where(parity[:, None], self.color_b, self.color_a)


class Brick(Texture):
    """POV ``brick``: staggered courses of bricks separated by mortar.

    Canonical brick size matches POV's default ``<8, 3, 4.5>`` with mortar
    thickness 0.5; scale the pattern transform for other sizes.
    """

    def __init__(
        self,
        brick_color=(0.6, 0.25, 0.2),
        mortar_color=(0.75, 0.72, 0.7),
        brick_size=(8.0, 3.0, 4.5),
        mortar: float = 0.5,
        transform: Transform | None = None,
    ):
        super().__init__(transform)
        self.brick_color = _as_rgb(brick_color)
        self.mortar_color = _as_rgb(mortar_color)
        self.brick_size = np.asarray(brick_size, dtype=np.float64)
        if np.any(self.brick_size <= 0):
            raise ValueError("brick_size components must be positive")
        self.mortar = float(mortar)
        if not (0 < self.mortar < self.brick_size.min()):
            raise ValueError("mortar must be positive and thinner than a brick")

    def color_local(self, p: np.ndarray) -> np.ndarray:
        bx, by, bz = self.brick_size
        x = p[..., 0] + 1e-7
        y = p[..., 1] + 1e-7
        z = p[..., 2] + 1e-7
        course = np.floor(y / by)
        # Alternate courses shift half a brick in x and z (running bond).
        offset = np.where((course.astype(np.int64) & 1).astype(bool), 0.5, 0.0)
        fx = np.mod(x / bx + offset, 1.0)
        fy = np.mod(y / by, 1.0)
        fz = np.mod(z / bz + offset, 1.0)
        mx = self.mortar / bx
        my = self.mortar / by
        mz = self.mortar / bz
        in_mortar = (fx < mx) | (fy < my) | (fz < mz)
        return np.where(in_mortar[:, None], self.mortar_color, self.brick_color)

