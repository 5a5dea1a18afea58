"""Rendering: wavefront Whitted tracer, framebuffer and ray statistics."""

from .framebuffer import Framebuffer
from .intersect import HitRecord, SceneIntersector
from .raytracer import MARK_CLASSES, RayTracer, TraceResult
from .shading import shade_local
from .shadow_cache import ShadowCache
from .stats import RayStats

__all__ = [
    "Framebuffer",
    "HitRecord",
    "MARK_CLASSES",
    "RayStats",
    "RayTracer",
    "SceneIntersector",
    "ShadowCache",
    "TraceResult",
    "shade_local",
]
