"""Micro-benchmarks of the hot paths.

Not tied to a specific table/figure — these are the throughput numbers a
downstream user of the library cares about, and the regression guard for
the vectorized kernels: primitive intersection, 3-D DDA marking, voxel
pixel-list updates, full-frame tracing and one coherent step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import UniformGrid, traverse
from repro.coherence import CoherentRenderer, VoxelPixelMap
from repro.geometry import Cylinder, Sphere, TriangleMesh
from repro.render import RayTracer
from repro.rmath import AABB, normalize, vec3
from repro.scenes import newton_animation, newton_scene

N_RAYS = 20_000
RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def ray_batch():
    origins = RNG.uniform(-5, 5, (N_RAYS, 3))
    origins[:, 2] = -10.0
    dirs = normalize(RNG.uniform(-0.3, 0.3, (N_RAYS, 3)) + [0, 0, 1.0])
    return origins, dirs


def test_sphere_intersection_throughput(benchmark, ray_batch):
    origins, dirs = ray_batch
    s = Sphere.at((0, 0, 0), 2.0)
    t, _ = benchmark(s.intersect, origins, dirs)
    assert np.isfinite(t).any()


def test_cylinder_intersection_throughput(benchmark, ray_batch):
    origins, dirs = ray_batch
    c = Cylinder.from_endpoints((0, -2, 0), (0, 2, 0), 1.5)
    t, _ = benchmark(c.intersect, origins, dirs)
    assert np.isfinite(t).any()


def test_mesh_intersection_throughput(benchmark, ray_batch):
    origins, dirs = ray_batch
    # An icosahedron-ish fan of 20 triangles.
    ring = np.array(
        [[np.cos(a), np.sin(a), 0.0] for a in np.linspace(0, 2 * np.pi, 21)[:-1]]
    )
    vertices = np.vstack([[0, 0, 1.0], [0, 0, -1.0], ring * 2.0])
    faces = np.array([[0, 2 + i, 2 + (i + 1) % 20] for i in range(20)])
    m = TriangleMesh(vertices, faces)
    t, _ = benchmark(m.intersect, origins, dirs)
    assert np.isfinite(t).any()


def test_dda_traversal_throughput(benchmark, ray_batch):
    origins, dirs = ray_batch
    grid = UniformGrid(AABB(vec3(-6, -6, -6), vec3(6, 6, 6)), 32)
    ray_idx, vox = benchmark(traverse, grid, origins, dirs)
    assert ray_idx.size > N_RAYS  # multiple voxels per ray


def test_voxel_pixel_map_update(benchmark):
    """One coherent frame's map update at the Table 1 shape: 24^3 voxels
    (the int16 layout), 320x240 pixels, ~19 % of them re-traced."""
    n_vox, n_pix = 24**3, 320 * 240
    m = VoxelPixelMap(n_vox, n_pix)
    m.add_marks(RNG.integers(0, n_vox, 1_000_000), RNG.integers(0, n_pix, 1_000_000))
    dirty = np.unique(RNG.integers(0, n_pix, n_pix // 5))
    new_vox = RNG.integers(0, n_vox, 200_000)
    new_pix = RNG.choice(dirty, 200_000)
    mm = m.copy()

    def update():
        mm.replace_pixel_marks(dirty, new_vox, new_pix)
        return mm

    benchmark(update)
    assert mm.n_entries > 0
    assert m.pixels_for_voxels(np.arange(n_vox)).size > 0.9 * n_pix


def test_full_frame_render(benchmark):
    scene = newton_scene(width=160, height=120)
    tracer = RayTracer(scene)
    fb, res = benchmark.pedantic(tracer.render, rounds=2, iterations=1)
    assert res.stats.total > 0


def test_coherent_step(benchmark):
    """One incremental frame after warm-up — the steady-state FC cost."""
    anim = newton_animation(n_frames=45, width=160, height=120)
    renderer = CoherentRenderer(anim, grid_resolution=32)
    renderer.render_next()  # full first frame (not measured)

    def step():
        if renderer.frames_remaining == 0:
            pytest.skip("animation exhausted")
        return renderer.render_next()

    report = benchmark.pedantic(step, rounds=5, iterations=1)
    assert report.n_computed < anim.camera_at(0).n_pixels
