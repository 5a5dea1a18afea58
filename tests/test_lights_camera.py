"""Tests for lights and the pinhole camera."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import RayKind
from repro.lighting import PointLight
from repro.scene import Camera


# -- PointLight ---------------------------------------------------------------
def test_shadow_rays_point_at_light():
    light = PointLight(np.array([0.0, 10.0, 0.0]), np.array([1.0, 1.0, 1.0]))
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 10.0, 4.0]])
    dirs, dists = light.shadow_rays(pts)
    np.testing.assert_allclose(dists, [10.0, 5.0])
    np.testing.assert_allclose(pts + dirs * dists[:, None], [[0, 10, 0]] * 2, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), [1, 1])


def test_intensity_no_fade():
    light = PointLight(np.zeros(3), np.array([0.5, 0.6, 0.7]))
    i = light.intensity_at(np.array([1.0, 100.0]))
    np.testing.assert_array_equal(i, [[0.5, 0.6, 0.7]] * 2)


def test_intensity_fades_with_distance():
    light = PointLight(np.zeros(3), np.ones(3), fade_distance=5.0, fade_power=2.0)
    near = light.intensity_at(np.array([1.0]))[0]
    at_fade = light.intensity_at(np.array([5.0]))[0]
    far = light.intensity_at(np.array([50.0]))[0]
    assert np.all(near >= at_fade) and np.all(at_fade >= far)
    np.testing.assert_allclose(at_fade, [1.0, 1.0, 1.0])  # 2/(1+1) = 1


def test_light_validation():
    with pytest.raises(ValueError):
        PointLight(np.zeros(3), np.array([-1.0, 0, 0]))
    with pytest.raises(ValueError):
        PointLight(np.zeros(3), np.ones(3), fade_distance=-1.0)


# -- Camera ----------------------------------------------------------------------
def _cam(**kw):
    defaults = dict(position=(0, 0, -5), look_at=(0, 0, 0), width=40, height=30, fov_degrees=60)
    defaults.update(kw)
    return Camera(**defaults)


def test_center_ray_is_view_direction():
    cam = _cam(width=41, height=31)  # odd so a pixel center sits on axis
    center_pixel = (31 // 2) * 41 + 41 // 2
    batch = cam.rays_for_pixels(np.array([center_pixel]))
    np.testing.assert_allclose(batch.dirs[0], [0, 0, 1], atol=1e-9)
    np.testing.assert_allclose(batch.origins[0], [0, 0, -5])
    assert batch.kind == RayKind.CAMERA


def test_fov_at_image_edge():
    cam = _cam(width=400, height=300, fov_degrees=90)
    # Left edge of the image plane is at tan(45 deg) horizontally.
    left_mid = (300 // 2) * 400 + 0
    batch = cam.rays_for_pixels(np.array([left_mid]))
    d = batch.dirs[0]
    angle = np.degrees(np.arctan2(-d @ cam._u, d @ cam._w))
    assert angle == pytest.approx(45.0, abs=0.5)


def test_all_rays_count_and_uniqueness():
    cam = _cam()
    batch = cam.all_rays()
    assert len(batch) == 40 * 30
    assert np.unique(batch.pixel).size == 1200


def test_pixel_subset_matches_full_grid():
    cam = _cam()
    subset = np.array([0, 17, 599, 1199])
    partial = cam.rays_for_pixels(subset)
    full = cam.all_rays()
    np.testing.assert_array_equal(partial.dirs, full.dirs[subset])


def test_pixel_out_of_range():
    cam = _cam()
    with pytest.raises(ValueError):
        cam.rays_for_pixels(np.array([40 * 30]))
    with pytest.raises(ValueError):
        cam.rays_for_pixels(np.array([-1]))


def test_camera_validation():
    with pytest.raises(ValueError):
        _cam(width=0)
    with pytest.raises(ValueError):
        _cam(fov_degrees=0.0)
    with pytest.raises(ValueError):
        _cam(fov_degrees=180.0)
    with pytest.raises(ValueError):
        Camera(position=(0, 0, 0), look_at=(0, 0, 0))
    with pytest.raises(ValueError):
        Camera(position=(0, 0, -5), look_at=(0, 0, 0), up=(0, 0, 1))


def test_with_resolution_keeps_view():
    cam = _cam()
    hi = cam.with_resolution(80, 60)
    assert (hi.width, hi.height) == (80, 60)
    np.testing.assert_array_equal(hi.position, cam.position)
    np.testing.assert_array_equal(hi.look_at, cam.look_at)


@given(st.integers(0, 40 * 30 - 1))
@settings(max_examples=40)
def test_rays_are_unit_length(pid):
    cam = _cam()
    batch = cam.rays_for_pixels(np.array([pid]))
    assert np.linalg.norm(batch.dirs[0]) == pytest.approx(1.0, abs=1e-12)


def test_aspect_ratio_symmetry():
    """Rays to mirrored pixels are mirrored."""
    cam = _cam(width=40, height=30)
    left = cam.rays_for_pixels(np.array([15 * 40 + 5]))
    right = cam.rays_for_pixels(np.array([15 * 40 + 34]))
    lx = left.dirs[0] @ cam._u
    rx = right.dirs[0] @ cam._u
    assert lx == pytest.approx(-rx, abs=1e-12)
