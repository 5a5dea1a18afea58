"""Light sources.

The paper's renderer (POV-Ray 3.0) uses point lights with shadow tests; we
implement point lights with optional distance attenuation plus an ambient
term carried by the scene.  Each light can answer, for a batch of shading
points, the direction/distance of its shadow rays — the renderer fires those
as first-class rays so they are counted in the statistics and marked in the
coherence voxel map, exactly as the paper describes ("for a given pixel,
numerous rays may be generated, including ... shadow rays").  One shadow
ray per lit shading point and light, as in the paper's scenes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PointLight"]


@dataclass
class PointLight:
    """An isotropic point emitter.

    Attributes
    ----------
    position : (3,) world position
    color : (3,) RGB intensity
    fade_distance, fade_power:
        POV-style attenuation: at distance d the intensity is scaled by
        ``2 / (1 + (d / fade_distance)**fade_power)`` when enabled
        (``fade_distance > 0``); no attenuation otherwise.
    """

    position: np.ndarray
    color: np.ndarray
    fade_distance: float = 0.0
    fade_power: float = 2.0
    name: str | None = None

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.color = np.asarray(self.color, dtype=np.float64).reshape(3)
        if np.any(self.color < 0):
            raise ValueError("light color must be non-negative")
        if self.fade_distance < 0:
            raise ValueError("fade_distance must be >= 0")

    def shadow_rays(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Directions (unit) and distances from shading points to the light."""
        to_light = self.position - np.asarray(points, dtype=np.float64)
        dist = np.linalg.norm(to_light, axis=-1)
        safe = np.where(dist > 0, dist, 1.0)
        return to_light / safe[..., None], dist

    def intensity_at(self, dist: np.ndarray) -> np.ndarray:
        """Per-point RGB intensity after attenuation, shape ``(N, 3)``."""
        dist = np.asarray(dist, dtype=np.float64)
        if self.fade_distance <= 0.0:
            return np.broadcast_to(self.color, dist.shape + (3,)).copy()
        f = 2.0 / (1.0 + (dist / self.fade_distance) ** self.fade_power)
        return np.clip(f, 0.0, 1.0)[..., None] * self.color
