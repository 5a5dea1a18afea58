"""Tests for Framebuffer and RayStats."""

import numpy as np
import pytest

from repro.geometry import RayKind
from repro.render import Framebuffer, RayStats


def test_framebuffer_scatter_gather():
    fb = Framebuffer(4, 3)
    ids = np.array([0, 5, 11])
    colors = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    fb.scatter(ids, colors)
    np.testing.assert_array_equal(fb.gather(ids), colors)
    assert np.all(fb.gather(np.array([1])) == 0)


def test_framebuffer_accumulate_duplicates():
    fb = Framebuffer(2, 2)
    fb.accumulate(np.array([0, 0, 0]), np.ones((3, 3)))
    np.testing.assert_array_equal(fb.data[0], [3, 3, 3])


def test_framebuffer_out_of_range():
    fb = Framebuffer(2, 2)
    with pytest.raises(IndexError):
        fb.scatter(np.array([4]), np.ones((1, 3)))


def test_framebuffer_as_image_shape():
    fb = Framebuffer(4, 3)
    assert fb.as_image().shape == (3, 4, 3)


def test_to_uint8_clamps_and_rounds():
    fb = Framebuffer(2, 1)
    fb.scatter(np.array([0, 1]), np.array([[2.0, -1.0, 0.5], [1.0, 0.0, 0.25]]))
    img = fb.to_uint8()
    np.testing.assert_array_equal(img[0, 0], [255, 0, 128])
    np.testing.assert_array_equal(img[0, 1], [255, 0, 64])


def test_diff_mask():
    from repro.imageio import diff_mask

    a = Framebuffer(2, 2)
    b = a.copy()
    b.scatter(np.array([3]), np.array([[0.5, 0, 0]]))
    mask = diff_mask(a.as_image(), b.as_image())
    np.testing.assert_array_equal(mask, [[False, False], [False, True]])
    assert not diff_mask(a.as_image(), b.as_image(), tol=0.5).any()
    with pytest.raises(ValueError):
        diff_mask(a.as_image(), Framebuffer(3, 3).as_image())


def test_framebuffer_validation():
    with pytest.raises(ValueError):
        Framebuffer(0, 2)


# -- RayStats ----------------------------------------------------------------
def test_stats_record_and_props():
    s = RayStats()
    s.record(RayKind.CAMERA, 10)
    s.record(RayKind.SHADOW, 5)
    s.record(RayKind.REFLECTED, 3)
    s.record(RayKind.REFRACTED, 2)
    assert (s.camera, s.shadow, s.reflected, s.refracted) == (10, 5, 3, 2)
    assert s.total == 20


def test_stats_add_and_iadd():
    a = RayStats()
    a.record(RayKind.CAMERA, 1)
    b = RayStats()
    b.record(RayKind.SHADOW, 2)
    c = a + b
    assert c.total == 3
    a += b
    assert a.total == 3
    assert b.total == 2  # unchanged


def test_stats_copy_independent():
    a = RayStats()
    a.record(RayKind.CAMERA, 1)
    b = a.copy()
    b.record(RayKind.CAMERA, 1)
    assert a.camera == 1 and b.camera == 2


def test_stats_as_dict():
    s = RayStats()
    s.record(RayKind.CAMERA, 7)
    d = s.as_dict()
    assert d["camera"] == 7 and d["total"] == 7
