"""Math substrate: batched vectors, AABBs and affine transforms."""

from .vec import (
    EPS,
    angle_between,
    clamp01,
    cross,
    dot,
    lerp,
    norm,
    norm_sq,
    normalize,
    orthonormal_basis,
    project,
    reflect,
    refract,
    reject,
    vec3,
    vec3s,
)
from .aabb import AABB, ray_aabb_intersect, union
from .transform import Transform

__all__ = [
    "EPS",
    "AABB",
    "Transform",
    "angle_between",
    "clamp01",
    "cross",
    "dot",
    "lerp",
    "norm",
    "norm_sq",
    "normalize",
    "orthonormal_basis",
    "project",
    "ray_aabb_intersect",
    "reflect",
    "refract",
    "reject",
    "union",
    "vec3",
    "vec3s",
]
