"""Behavioural tests for the wavefront tracer."""

import numpy as np
import pytest

from repro.geometry import Plane, Sphere
from repro.lighting import PointLight
from repro.materials import Finish, Material, SolidColor
from repro.render import RayTracer
from repro.scene import Camera, Scene


def _scene(objects, lights=None, background=(0.1, 0.2, 0.3), max_depth=5, wh=(16, 12)):
    cam = Camera(position=(0, 1, -6), look_at=(0, 1, 0), width=wh[0], height=wh[1])
    return Scene(
        camera=cam,
        objects=objects,
        lights=lights if lights is not None else [PointLight(np.array([3.0, 8.0, -4.0]), np.ones(3))],
        background=np.asarray(background, dtype=float),
        max_depth=max_depth,
    )


def test_empty_scene_is_background():
    scene = _scene([], lights=[])
    fb, res = RayTracer(scene).render()
    img = fb.as_image()
    np.testing.assert_allclose(img, np.broadcast_to([0.1, 0.2, 0.3], img.shape))
    assert res.stats.total == res.stats.camera == 16 * 12


def test_depth_limits_child_rays():
    mirror = Sphere.at((0, 1, 0), 1.0, material=Material.mirror())
    scene1 = _scene([mirror], max_depth=1)
    _, res1 = RayTracer(scene1).render()
    assert res1.stats.reflected == 0
    scene2 = _scene([mirror], max_depth=3)
    _, res2 = RayTracer(scene2).render()
    assert res2.stats.reflected > 0


def test_shadow_rays_fired_per_light():
    floor = Plane.from_normal((0, 1, 0), 0.0, material=Material.matte((1, 1, 1)))
    one = _scene([floor])
    _, res1 = RayTracer(one).render()
    two = _scene(
        [floor],
        lights=[
            PointLight(np.array([3.0, 8.0, -4.0]), np.ones(3)),
            PointLight(np.array([-3.0, 8.0, -4.0]), np.ones(3)),
        ],
    )
    _, res2 = RayTracer(two).render()
    assert res2.stats.shadow == 2 * res1.stats.shadow > 0


def test_mirror_shows_background():
    """A perfect mirror facing the camera reflects background color rays."""
    mirror_mat = Material(
        pigment=SolidColor((1, 1, 1)),
        finish=Finish(ambient=0.0, diffuse=0.0, specular=0.0, reflection=1.0),
    )
    ball = Sphere.at((0, 1, 0), 1.0, material=mirror_mat)
    scene = _scene([ball], lights=[], background=(0.25, 0.5, 0.75))
    fb, res = RayTracer(scene).render()
    # The center pixel hits the sphere head-on; reflection goes straight back
    # to the camera, escaping to the background.
    img = fb.as_image()
    center = img[6, 8]
    np.testing.assert_allclose(center, [0.25, 0.5, 0.75], atol=1e-9)
    assert res.stats.reflected > 0


def test_fully_transparent_sphere_passes_background():
    """transmission=1, ior=1: rays pass through unchanged (refraction is a
    no-op), so every pixel sees the background."""
    ghost = Material(
        pigment=SolidColor((1, 1, 1)),
        finish=Finish(ambient=0.0, diffuse=0.0, specular=0.0, transmission=1.0, ior=1.0),
    )
    ball = Sphere.at((0, 1, 0), 1.0, material=ghost)
    scene = _scene([ball], lights=[], background=(0.3, 0.6, 0.9))
    fb, res = RayTracer(scene).render()
    np.testing.assert_allclose(
        fb.as_image(), np.broadcast_to([0.3, 0.6, 0.9], (12, 16, 3)), atol=1e-9
    )
    assert res.stats.refracted > 0


def test_weight_cutoff_terminates_recursion():
    """Two parallel mirrors would recurse forever without depth/weight caps;
    with reflection 0.1 the weight dies after ~2 bounces."""
    dim_mirror = Material(
        pigment=SolidColor((1, 1, 1)),
        finish=Finish(ambient=0.0, diffuse=0.0, reflection=0.1),
    )
    a = Plane.from_normal((0, 0, -1), -3.0, material=dim_mirror)
    b = Plane.from_normal((0, 0, 1), -10.0, material=dim_mirror)
    scene = _scene([a, b], lights=[], max_depth=5)
    _, res = RayTracer(scene).render()
    # depth 5 would allow 4 reflection generations; weight cutoff stops at 2
    # (0.1^3 = 1e-3 < 1/255).
    assert 0 < res.stats.reflected < 3 * res.stats.camera


def test_chunk_size_does_not_change_image(simple_scene):
    fb1, res1 = RayTracer(simple_scene, chunk_size=64).render()
    fb2, res2 = RayTracer(simple_scene, chunk_size=100000).render()
    np.testing.assert_array_equal(fb1.data, fb2.data)
    assert res1.stats.total == res2.stats.total


def test_trace_subset_matches_full(simple_scene):
    tracer = RayTracer(simple_scene)
    full = tracer.trace_pixels(simple_scene.camera.pixel_grid())
    subset_ids = np.array([0, 100, 500, 1000, 1727])
    sub = RayTracer(simple_scene).trace_pixels(subset_ids)
    sel = np.searchsorted(full.pixel_ids, subset_ids)
    np.testing.assert_array_equal(sub.colors, full.colors[sel])
    np.testing.assert_array_equal(sub.rays_per_pixel, full.rays_per_pixel[sel])


def test_rays_per_pixel_accounting(simple_scene):
    tracer = RayTracer(simple_scene)
    res = tracer.trace_pixels(simple_scene.camera.pixel_grid())
    assert int(res.rays_per_pixel.sum()) == res.stats.total
    assert np.all(res.rays_per_pixel >= 1)  # every pixel fired its camera ray


def test_track_paths_produces_marks(simple_scene):
    tracer = RayTracer(simple_scene, track_paths=True)
    res = tracer.trace_pixels(simple_scene.camera.pixel_grid())
    assert res.mark_voxels.size > 0
    assert res.mark_voxels.shape == res.mark_pixels.shape
    # Every marked pixel is a real pixel; voxel ids are in range.
    assert res.mark_pixels.min() >= 0
    assert res.mark_pixels.max() < simple_scene.camera.n_pixels
    assert res.mark_voxels.min() >= 0
    assert res.mark_voxels.max() < tracer.grid.n_voxels


def test_no_tracking_no_marks(simple_scene):
    res = RayTracer(simple_scene).trace_pixels(np.arange(10))
    assert res.mark_voxels.size == 0


def test_determinism_across_runs(simple_scene):
    fb1, _ = RayTracer(simple_scene).render()
    fb2, _ = RayTracer(simple_scene).render()
    np.testing.assert_array_equal(fb1.data, fb2.data)


def test_invalid_chunk_size(simple_scene):
    with pytest.raises(ValueError):
        RayTracer(simple_scene, chunk_size=0)


def test_glass_sphere_refracts(simple_scene):
    _, res = RayTracer(simple_scene).render()
    assert res.stats.refracted > 0
    assert res.stats.reflected > 0
    assert res.stats.shadow > 0


def test_a_pixel_traced_alone_gets_its_full_frame_bits():
    """The coherent renderer re-traces a handful of pixels, so a ray's bits
    must not depend on its batch: with tilted objects every transform is a
    full 3x3 product, which numpy rounds differently for a lone row."""
    from repro.geometry import Cylinder
    from repro.rmath import Transform

    glass = Material(SolidColor((0.9, 0.9, 1.0)), Finish(diffuse=0.2, reflection=0.3,
                                                          transmission=0.6, ior=1.4))
    chrome = Material(SolidColor((0.8, 0.8, 0.8)), Finish(diffuse=0.3, reflection=0.7))
    scene = Scene(
        camera=Camera(position=(0, 2, -6), look_at=(0, 0.8, 0), width=20, height=15),
        objects=[
            Plane.from_normal((0, 1, 0), 0.0, material=chrome, name="floor"),
            Cylinder.from_endpoints((-1.2, 0.0, 0.3), (0.4, 1.8, -0.2), 0.35, material=glass),
            Sphere(material=chrome, transform=Transform.translate(0.9, 0.8, 0.4)
                   @ Transform.rotate_axis(np.array([1.0, 0.5, 0.2]), 0.6)
                   @ Transform.scale(0.5, 0.8, 0.6)),
        ],
        lights=[PointLight(np.array([3.0, 7.0, -4.0]), np.ones(3))],
        max_depth=5,
    )
    tracer = RayTracer(scene)
    full = tracer.trace_pixels(scene.camera.pixel_grid())
    alone = np.concatenate([tracer.trace_pixels(np.array([p])).colors for p in full.pixel_ids])
    np.testing.assert_array_equal(alone, full.colors)
