"""Geometry layer: ray batches and vectorized primitives."""

from .base import MISS, Primitive, solve_quadratic
from .box import Box
from .cylinder import Cylinder
from .plane import Plane
from .rays import RayBatch, RayKind
from .sphere import Sphere

__all__ = [
    "MISS",
    "Box",
    "Cylinder",
    "Plane",
    "Primitive",
    "RayBatch",
    "RayKind",
    "Sphere",
    "solve_quadratic",
]
