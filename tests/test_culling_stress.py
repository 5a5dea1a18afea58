"""Tests for the batch skip and the stress workloads."""

import numpy as np
import pytest

from repro.geometry import Box, Cylinder, Plane, RayBatch, Sphere
from repro.parallel.partition import PixelRegion
from repro.render import RayTracer, SceneIntersector
from repro.rmath import normalize
from repro.scenes import (
    newton_animation,
    random_spheres_animation,
    random_spheres_scene,
    two_shot_animation,
)


def _batch(n=500, seed=0):
    rng = np.random.default_rng(seed)
    origins = rng.uniform(-6, 6, (n, 3))
    origins[:, 2] = -10.0
    dirs = normalize(rng.uniform(-0.4, 0.4, (n, 3)) + [0, 0, 1.0])
    return RayBatch(origins, dirs, np.arange(n), np.ones((n, 3)))


@pytest.fixture(scope="module")
def mixed_objects():
    rng = np.random.default_rng(5)
    objs = [Plane.from_normal((0, 1, 0), -7.0)]
    for _ in range(6):
        c = rng.uniform(-5, 5, 3)
        objs.append(Box.from_corners(c - 0.5, c + rng.uniform(0.2, 0.8, 3)))
    objs += [Sphere.at(rng.uniform(-5, 5, 3), 0.4) for _ in range(6)]
    objs += [
        Cylinder.from_endpoints(p, p + rng.normal(size=3), 0.3)
        for p in rng.uniform(-5, 5, (3, 3))
    ]
    return objs


def test_culling_matches_flat_nearest(mixed_objects):
    """The batch skip (default) against no bounds test, bit for bit."""
    batch = _batch()
    culled = SceneIntersector(mixed_objects).nearest(batch)
    flat = SceneIntersector(mixed_objects, cull_bounds=False).nearest(batch)
    assert culled.hit.any() and len(set(culled.obj_index.tolist())) > 4
    np.testing.assert_array_equal(culled.t, flat.t)
    np.testing.assert_array_equal(culled.obj_index, flat.obj_index)
    np.testing.assert_array_equal(culled.normals, flat.normals)


def test_culling_matches_flat_shadow(mixed_objects):
    rng = np.random.default_rng(1)
    # Give some objects materials so transmissive filtering is exercised.
    from repro.materials import Material

    for i, o in enumerate(mixed_objects):
        o.material = Material.glass() if i % 3 == 0 else Material.matte((1, 1, 1))
    origins = rng.uniform(-5, 5, (300, 3))
    dirs = normalize(rng.uniform(-1, 1, (300, 3)) + 1e-3)
    dists = rng.uniform(2, 15, 300)
    a = SceneIntersector(mixed_objects).shadow_attenuation(origins, dirs, dists)
    b = SceneIntersector(mixed_objects, cull_bounds=False).shadow_attenuation(origins, dirs, dists)
    assert 0.0 < a.mean() < 1.0
    np.testing.assert_array_equal(a, b)


# -- stress scenes -----------------------------------------------------------------
def test_random_spheres_deterministic():
    a = random_spheres_scene(20, seed=7, width=32, height=24)
    b = random_spheres_scene(20, seed=7, width=32, height=24)
    for oa, ob in zip(a.objects, b.objects):
        np.testing.assert_array_equal(oa.transform.m, ob.transform.m)
    c = random_spheres_scene(20, seed=8, width=32, height=24)
    assert any(
        not np.array_equal(oa.transform.m, oc.transform.m)
        for oa, oc in zip(a.objects[1:], c.objects[1:])
    )


def test_random_spheres_renders():
    scene = random_spheres_scene(30, seed=2, width=48, height=36)
    _, res = RayTracer(scene).render()
    assert res.stats.camera == 48 * 36
    assert res.stats.shadow > 0


def test_random_spheres_animation_movers():
    anim = random_spheres_animation(n_frames=3, n_spheres=10, n_movers=2, width=32, height=24)
    s0, s2 = anim.scene_at(0), anim.scene_at(2)
    moved = [
        a.name
        for a, b in zip(s0.objects, s2.objects)
        if not np.array_equal(a.transform.m, b.transform.m)
    ]
    assert sorted(moved) == ["ball000", "ball001"]


def test_random_spheres_validation():
    with pytest.raises(ValueError):
        random_spheres_scene(0)
    with pytest.raises(ValueError):
        random_spheres_animation(n_spheres=5, n_movers=9)


def test_two_shot_camera_cut():
    anim = two_shot_animation(n_frames=6)
    from repro.scene import split_coherent_sequences

    assert split_coherent_sequences(anim) == [(0, 3), (3, 6)]
    with pytest.raises(ValueError):
        two_shot_animation(n_frames=4, cut_at=0)


# -- the batch skip: bitwise equal to the no-bounds reference ----------------------
def _rays(origins, dirs):
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = origins.shape[0]
    return RayBatch(origins, dirs, np.arange(n), np.ones((n, 3)))


def _same_nearest(objects, batch):
    """Default intersector vs ``cull_bounds=False``, bit for bit; returns
    both (for their test counters)."""
    fast, ref = SceneIntersector(objects), SceneIntersector(objects, cull_bounds=False)
    a, b = fast.nearest(batch), ref.nearest(batch)
    assert np.array_equal(a.t, b.t, equal_nan=True)
    assert np.array_equal(a.obj_index, b.obj_index)
    assert np.array_equal(a.normals, b.normals, equal_nan=True)
    return fast, ref


def _same_shadow(objects, origins, dirs, dists):
    fast, ref = SceneIntersector(objects), SceneIntersector(objects, cull_bounds=False)
    a = fast.shadow_attenuation(origins, dirs, dists)
    assert np.array_equal(a, ref.shadow_attenuation(origins, dirs, dists), equal_nan=True)
    return fast, ref


def test_skip_is_exact_on_a_newton_block_and_tests_less():
    scene = newton_animation(n_frames=1, width=128, height=96).scene_at(0)
    cam = scene.camera
    for box in ((0, 0, 32, 32), (48, 32, 80, 64), (96, 64, 128, 96)):
        batch = cam.rays_for_pixels(PixelRegion(*box, width=cam.width).pixels)
        fast, ref = _same_nearest(scene.objects, batch)
        assert fast.n_primitive_tests < ref.n_primitive_tests, box
        hit = ref.nearest(batch)
        pts = batch.origins[hit.hit] + hit.t[hit.hit, None] * batch.dirs[hit.hit]
        for light in scene.lights:
            to_light = light.position - pts
            dist = np.linalg.norm(to_light, axis=1)
            _same_shadow(scene.objects, pts, to_light / dist[:, None], dist)


def _boxes_and_balls():
    return [
        Box.from_corners((-1, -1, -1), (1, 1, 1)),
        Box.from_corners((2, 2, 2), (3, 3.5, 2.5)),
        Sphere.at((-3, 0.5, 0), 0.5),
        Sphere.at((0, -3, 1), 0.7),
    ]


def test_skip_is_exact_on_axis_parallel_rays_both_ways():
    objects = _boxes_and_balls()
    rng = np.random.default_rng(3)
    for axis in range(3):
        for sign in (1.0, -1.0):
            d = np.zeros(3)
            d[axis] = sign  # two zero components, one of either sign
            origins = rng.uniform(-3.5, 3.5, (60, 3))
            origins[:, axis] = -8.0 * sign
            fast, _ = _same_nearest(objects, _rays(origins, np.tile(d, (60, 1))))
            assert fast.n_primitive_tests > 0
            # a narrow bundle that sees one box only
            bundle = rng.uniform(-0.5, 0.5, (20, 3))
            bundle[:, axis] = -8.0 * sign
            fast, ref = _same_nearest(objects, _rays(bundle, np.tile(d, (20, 1))))
            assert ref.nearest(_rays(bundle, np.tile(d, (20, 1)))).hit.all()
            assert fast.n_primitive_tests < ref.n_primitive_tests


def test_skip_is_exact_from_inside_a_box():
    objects = _boxes_and_balls()
    rng = np.random.default_rng(4)
    origins = rng.uniform(-0.9, 0.9, (80, 3))
    dirs = normalize(rng.normal(size=(80, 3)))
    _same_nearest(objects, _rays(origins, dirs))
    _same_shadow(objects, origins, dirs, rng.uniform(0.1, 6.0, 80))


def test_skip_is_exact_on_rays_grazing_a_box_face():
    # lo + (hi - lo) rounds, so the world AABB's hi x is -0.10000000000000009
    # and rays a few ulps beyond it still map inside the unit box.
    box = Box.from_corners((-2.0, 1.9, 1.1), (-0.1, 3.2, 1.6))
    b = box.bounds()
    outside_hits = 0
    for edge, away in ((b.hi[0], np.inf), (b.lo[0], -np.inf)):
        x = edge
        for _ in range(6):
            x = np.nextafter(x, away)
            for y in (b.lo[1], 2.5, b.hi[1]):
                batch = _rays([[x, y, b.lo[2] - 5.0]], [[0.0, 0.0, 1.0]])
                with np.errstate(invalid="ignore"):  # 0 * inf in the box's own slab test
                    _same_nearest([box], batch)
                    hit = SceneIntersector([box], cull_bounds=False).nearest(batch).hit[0]
                outside_hits += int(hit)
    assert outside_hits > 0  # the case the padding is for exists


def test_skip_is_exact_on_shadow_segments_ending_short_of_an_occluder():
    ball = Sphere.at((0, 0, 5), 1.0)
    n = 7
    origins = np.zeros((n, 3))
    dirs = np.tile([0.0, 0.0, 1.0], (n, 1))
    for gap in (1e-3, 1e-6, 1e-9, 0.0, -1e-6, -1e-3):
        dists = np.full(n, 4.0 - gap)  # the ball's surface is at t = 4
        _same_shadow([ball], origins, dirs, dists)
    # only the longest segments of a batch reach into the ball
    a = SceneIntersector([ball]).shadow_attenuation(origins, dirs, np.linspace(1.0, 7.0, n))
    assert a[0] == 1.0 and a[-1] == 0.0
    _same_shadow([ball], origins, dirs, np.linspace(1.0, 7.0, n))
    fast, ref = _same_shadow([ball], origins, dirs, np.full(n, 2.0))
    assert fast.n_primitive_tests == 0 < ref.n_primitive_tests


def test_skip_always_evaluates_the_infinite_plane():
    objects = [Plane.from_normal((0, 1, 0), -1.0), Sphere.at((0, 5, 20), 0.5)]
    rng = np.random.default_rng(6)
    origins = rng.uniform(-1, 1, (40, 3))
    dirs = normalize(rng.uniform(-0.3, 0.3, (40, 3)) + [0, -1.0, 0])
    fast, ref = _same_nearest(objects, _rays(origins, dirs))
    assert fast.n_primitive_tests == 40 < ref.n_primitive_tests  # plane yes, ball no
    assert ref.nearest(_rays(origins, dirs)).hit.all()


def test_skip_evaluates_everything_for_a_batch_with_a_nan_row():
    objects = _boxes_and_balls()
    rng = np.random.default_rng(7)
    origins = rng.uniform(-0.2, 0.2, (10, 3)) + [0, 0, -8.0]
    dirs = np.tile([0.0, 0.0, 1.0], (10, 1))
    origins[3] = np.nan
    fast, ref = _same_nearest(objects, _rays(origins, dirs))
    assert fast.n_primitive_tests == ref.n_primitive_tests
    dists = np.full(10, 20.0)
    fast, ref = _same_shadow(objects, origins, dirs, dists)
    assert fast.n_primitive_tests == ref.n_primitive_tests
