"""Scene container: camera + primitives + lights + global settings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import Primitive
from ..lighting import PointLight
from ..rmath import AABB, vec3
from .camera import Camera

__all__ = ["Scene"]


@dataclass
class Scene:
    """Everything needed to render one frame.

    Attributes
    ----------
    camera:
        The (stationary, within a coherent sequence) camera.
    objects:
        Primitives; order is stable and object identity across frames is
        tracked by ``Primitive.prim_id``.
    lights:
        Point light sources.
    background:
        RGB color returned by rays that escape the scene.
    ambient_light:
        Global ambient RGB multiplied by each finish's ``ambient``.
    max_depth:
        Recursion limit for reflected/refracted rays (the paper uses 5).
    """

    camera: Camera
    objects: list[Primitive] = field(default_factory=list)
    lights: list[PointLight] = field(default_factory=list)
    background: np.ndarray = field(default_factory=lambda: vec3(0.0, 0.0, 0.0))
    ambient_light: np.ndarray = field(default_factory=lambda: vec3(1.0, 1.0, 1.0))
    max_depth: int = 5

    def __post_init__(self) -> None:
        self.background = np.asarray(self.background, dtype=np.float64).reshape(3)
        self.ambient_light = np.asarray(self.ambient_light, dtype=np.float64).reshape(3)
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        ids = [o.prim_id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate prim_id in scene (did you add the same object twice?)")

    def add(self, *objects: Primitive) -> "Scene":
        self.objects.extend(objects)
        return self

    def add_light(self, *lights: PointLight) -> "Scene":
        self.lights.extend(lights)
        return self

    def object_by_name(self, name: str) -> Primitive:
        for o in self.objects:
            if o.name == name:
                return o
        raise KeyError(name)

    def finite_bounds(self) -> AABB:
        """Union of the finite object bounds (infinite primitives skipped)."""
        boxes = [o.bounds() for o in self.objects]
        lo = np.array([b.lo for b in boxes]).reshape(-1, 3)
        hi = np.array([b.hi for b in boxes]).reshape(-1, 3)
        finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
        if not finite.any():
            return AABB.empty()
        return AABB(lo[finite].min(axis=0), hi[finite].max(axis=0))

    def world_bounds(self, margin_frac: float = 0.05) -> AABB:
        """Voxelizable region: the finite objects, padded.

        Deliberately excludes the camera and lights: any ray whose result
        can be affected by an object lying in (or moving into) a voxel must
        traverse that voxel, so the grid only needs to cover *object* space.
        Keeping it tight makes voxels small and coherence predictions sharp.
        Infinite primitives (planes) are clipped to this region when the
        uniform grid is built, matching how POV-style grids handle planes.
        """
        box = self.finite_bounds()
        if box.is_empty():
            pts = [self.camera.position] + [light.position for light in self.lights]
            box = AABB.from_points(np.asarray(pts))
        if box.is_empty():
            return AABB(vec3(-1, -1, -1), vec3(1, 1, 1))
        diag = float(np.linalg.norm(box.extent))
        pad = max(diag * margin_frac, 1e-6)
        return box.expanded(pad)

    def replaced_objects(self, objects: list[Primitive]) -> "Scene":
        """A sibling scene with the same settings but different objects."""
        return Scene(
            camera=self.camera,
            objects=list(objects),
            lights=list(self.lights),
            background=self.background.copy(),
            ambient_light=self.ambient_light.copy(),
            max_depth=self.max_depth,
        )
