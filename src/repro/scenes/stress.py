"""Stress workloads: many-object scenes and camera-cut animations.

The paper's future work calls for "experimentation with large, complex
animations that can more fully benefit from the frame coherence
techniques"; these scenes provide that — a field of many spheres with a
few movers (exercising the batch skip and tight dirty sets), and a
multi-shot animation whose camera cuts force the coherent-sequence
segmentation machinery.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Plane, Sphere
from ..lighting import PointLight
from ..materials import Checker, Material
from ..rmath import Transform, vec3
from ..scene import Camera, FunctionAnimation, Scene

__all__ = ["random_spheres_scene", "random_spheres_animation", "two_shot_animation"]


def random_spheres_scene(
    n_spheres: int = 60, seed: int = 0, width: int = 160, height: int = 120
) -> Scene:
    """A floor plus ``n_spheres`` spheres of mixed materials, deterministic."""
    if n_spheres < 1:
        raise ValueError("need at least one sphere")
    rng = np.random.default_rng(seed)
    objects = [
        Plane.from_normal(
            (0, 1, 0),
            0.0,
            material=Material.textured(Checker((0.9, 0.9, 0.9), (0.2, 0.2, 0.25)).scaled(1.5)),
            name="floor",
        )
    ]
    for i in range(n_spheres):
        r = float(rng.uniform(0.15, 0.5))
        pos = (
            float(rng.uniform(-6, 6)),
            float(rng.uniform(r, 3.0)),
            float(rng.uniform(-2, 8)),
        )
        roll = rng.uniform()
        if roll < 0.2:
            mat = Material.chrome()
        elif roll < 0.3:
            mat = Material.glass()
        else:
            mat = Material.matte(tuple(rng.uniform(0.2, 0.95, 3)))
        objects.append(Sphere.at(pos, r, material=mat, name=f"ball{i:03d}"))

    camera = Camera(
        position=(0, 3.2, -9), look_at=(0, 1.2, 1.0), fov_degrees=58, width=width, height=height
    )
    return Scene(
        camera=camera,
        objects=objects,
        lights=[
            PointLight(vec3(-6, 9, -6), vec3(0.9, 0.9, 0.85)),
            PointLight(vec3(6, 7, -2), vec3(0.4, 0.4, 0.5)),
        ],
        background=vec3(0.1, 0.12, 0.2),
    )


def random_spheres_animation(
    n_frames: int = 10,
    n_spheres: int = 60,
    n_movers: int = 3,
    seed: int = 0,
    width: int = 160,
    height: int = 120,
) -> FunctionAnimation:
    """The sphere field with a few spheres orbiting; the rest are static."""
    if not (0 <= n_movers <= n_spheres):
        raise ValueError("n_movers must be within [0, n_spheres]")
    scene = random_spheres_scene(n_spheres, seed=seed, width=width, height=height)

    def orbit(i: int):
        phase = i * 2.1

        def motion(frame: int) -> Transform:
            a = 0.35 * frame + phase
            return Transform.translate(0.6 * np.cos(a), 0.25 * np.sin(2 * a) + 0.3, 0.6 * np.sin(a))

        return motion

    motions = {f"ball{i:03d}": orbit(i) for i in range(n_movers)}
    return FunctionAnimation(scene, n_frames, motions=motions)


def two_shot_animation(
    n_frames: int = 8, cut_at: int | None = None, width: int = 96, height: int = 72
) -> FunctionAnimation:
    """A cradle-free animation with a hard camera cut in the middle.

    The first shot views the spheres from the front, the second from the
    side; the coherence pipeline must split at the cut (the paper: "any
    camera movement logically separates one sequence from another").
    """
    cut_at = n_frames // 2 if cut_at is None else int(cut_at)
    if not (0 < cut_at < n_frames):
        raise ValueError("cut must be strictly inside the animation")
    scene = random_spheres_scene(12, seed=3, width=width, height=height)

    front = Camera(position=(0, 3.2, -9), look_at=(0, 1.2, 1.0), fov_degrees=58, width=width, height=height)
    side = Camera(position=(9, 2.5, 2.0), look_at=(0, 1.0, 2.0), fov_degrees=58, width=width, height=height)

    def camera_fn(frame: int) -> Camera:
        return front if frame < cut_at else side

    def bob(frame: int) -> Transform:
        return Transform.translate(0.0, 0.4 * abs(np.sin(0.6 * frame)), 0.0)

    return FunctionAnimation(scene, n_frames, motions={"ball000": bob}, camera_fn=camera_fn)
