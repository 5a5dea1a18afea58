"""Micro-benchmarks of the hot paths.

Not tied to a specific table/figure — these are the throughput numbers a
downstream user of the library cares about, and the regression guard for
the vectorized kernels: primitive intersection, stacked vs per-object
scene queries, one frame-division block's scene queries, 3-D DDA marking,
voxel pixel-list updates, full-frame tracing and one coherent step — and
the fixed costs a frame pays before its first ray: one scene build, and
the grid-bounds sweep over a whole animation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import UniformGrid, traverse
from repro.coherence import CoherentRenderer, VoxelPixelMap, grid_for_animation
from repro.geometry import Cylinder, Sphere
from repro.parallel.partition import PixelRegion
from repro.render import RayTracer, SceneIntersector
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


def test_block_batch_queries(benchmark):
    """A frame-division block's queries: ``nearest`` and one shadow volley
    per light for a 32x32 camera block of Newton frame 0 (most objects are
    out of the block's reach, which the batch skip is for)."""
    scene = newton_scene(width=160, height=120)
    batch = scene.camera.rays_for_pixels(PixelRegion(64, 32, 96, 64, width=160).pixels)
    intersector = SceneIntersector(scene.objects)

    def queries():
        hit = intersector.nearest(batch)
        pts = batch.origins[hit.hit] + hit.t[hit.hit, None] * batch.dirs[hit.hit]
        for light in scene.lights:
            to_light = light.position - pts
            dist = np.linalg.norm(to_light, axis=1)
            intersector.shadow_attenuation(pts, to_light / dist[:, None], dist)
        return hit

    hit = benchmark(queries)
    assert hit.hit.any() and not hit.hit.all()


def _looped_nearest(objects, origins, dirs):
    """The per-object kernel the stacked one replaced: one ``intersect`` each."""
    best_t = np.full(origins.shape[0], np.inf)
    best_obj = np.full(origins.shape[0], -1)
    for idx, obj in enumerate(objects):
        t, _ = obj.intersect(origins, dirs)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_obj = np.where(closer, idx, best_obj)
    return best_t, best_obj


@pytest.fixture(scope="module")
def newton_cylinders():
    scene = newton_scene(width=128, height=96)
    cylinders = [o for o in scene.objects if isinstance(o, Cylinder)]
    assert len(cylinders) == 16
    return scene, cylinders


@pytest.mark.parametrize("mode", ["stacked", "looped"])
@pytest.mark.parametrize("n_rays", [512, 12_288])  # a coherent frame's batch; a full frame
def test_newton_cylinders_nearest(benchmark, newton_cylinders, mode, n_rays):
    """The 16 Newton cylinders: one stacked call per type vs one call each."""
    scene, cylinders = newton_cylinders
    pixels = np.arange(128 * 96)[:: 128 * 96 // n_rays]
    batch = scene.camera.rays_for_pixels(pixels)
    inter = SceneIntersector(cylinders, cull_bounds=False)
    if mode == "stacked":
        rec = benchmark(inter.nearest, batch)
        t, obj = rec.t, rec.obj_index
    else:
        t, obj = benchmark(_looped_nearest, cylinders, batch.origins, batch.dirs)
    ref_t, ref_obj = _looped_nearest(cylinders, batch.origins, batch.dirs)
    assert np.array_equal(t, ref_t) and np.array_equal(obj, ref_obj) and np.isfinite(t).any()


@pytest.mark.parametrize("mode", ["t-only", "intersect"])
def test_newton_shadow_query(benchmark, mode):
    """One shadow volley of a Newton frame: the ``t``-only stacked query vs
    per-object ``intersect`` calls whose normals are thrown away."""
    scene = newton_scene(width=128, height=96)
    batch = scene.camera.rays_for_pixels(np.arange(0, 128 * 96, 4))
    inter = SceneIntersector(scene.objects, cull_bounds=False)
    hit = inter.nearest(batch)
    pts = batch.origins[hit.hit] + hit.t[hit.hit, None] * batch.dirs[hit.hit]
    pts += 1e-6 * hit.normals[hit.hit]
    to_light = scene.lights[0].position - pts
    dist = np.linalg.norm(to_light, axis=1)
    dirs = to_light / dist[:, None]

    def looped():
        atten = np.ones(dist.size)
        for obj in scene.objects:
            t, _ = obj.intersect(pts, dirs)
            atten[np.isfinite(t) & (t > 1e-6) & (t < dist - 1e-6)] = 0.0  # all opaque
        return atten

    run = (lambda: inter.shadow_attenuation(pts, dirs, dist)) if mode == "t-only" else looped
    atten = benchmark(run)
    assert np.array_equal(atten, looped()) and (atten == 0.0).any()


def test_dda_traversal_throughput(benchmark, ray_batch):
    origins, dirs = ray_batch
    grid = UniformGrid(AABB(vec3(-6, -6, -6), vec3(6, 6, 6)), 32)
    ray_idx, vox = benchmark(traverse, grid, origins, dirs)
    assert ray_idx.size > N_RAYS  # multiple voxels per ray


@pytest.mark.parametrize("readable", [True, False], ids=["readable", "every-voxel"])
def test_newton_frame_marking_pass(benchmark, monkeypatch, readable):
    """One Newton frame's marking pass: every ray volley frame 0 of the
    12-frame 128x96 run queues, through ``traverse`` in one pass, filtered
    to the frame's readable voxels (or recording every mark)."""
    from repro.render import raytracer

    anim = newton_animation(n_frames=12, width=128, height=96)
    renderer = CoherentRenderer(anim, grid_resolution=24)
    mask = renderer._readable(0) if readable else None
    backends = []
    finalize = raytracer._LocalBackend.finalize
    monkeypatch.setattr(raytracer._LocalBackend, "finalize",
                        lambda self: backends.append(self) or finalize(self))
    RayTracer(anim.scene_at(0), grid=renderer.grid, track_paths=True,
              readable=mask).trace_pixels(anim.camera_at(0).pixel_grid())
    monkeypatch.undo()
    voxels, _pixels, _by_class = benchmark(backends[0].finalize)
    assert voxels.size and (mask is None or mask[voxels].all())


def test_newton_scene_build(benchmark):
    """One Newton frame's scene: composing transforms, no inverse."""
    scene = benchmark.pedantic(
        lambda anim: anim.scene_at(7),
        setup=lambda: ((newton_animation(n_frames=45, width=160, height=120),), {}),
        rounds=20,
    )
    assert len(scene.objects) > 16


def test_hold_grid_sweep(benchmark):
    """The voxel grid's bounds over the 90 frames of the held shot: every
    scene built once.  A farm's master pays it once per run; no worker does."""
    grid = benchmark.pedantic(
        lambda anim: grid_for_animation(anim, 24),
        setup=lambda: ((newton_animation(n_frames=90, width=160, height=120,
                                         swing_degrees=0.0),), {}),
        rounds=3,
    )
    assert grid.n_voxels == 24**3


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
