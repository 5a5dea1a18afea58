"""Tests for materials and procedural textures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.materials import Brick, Checker, Finish, Material, SolidColor
from repro.rmath import Transform

points = arrays(
    np.float64,
    (16, 3),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


# -- Finish validation --------------------------------------------------------
def test_finish_defaults_valid():
    f = Finish()
    assert not f.is_reflective and not f.is_transmissive


def test_finish_flags():
    assert Finish(reflection=0.5).is_reflective
    assert Finish(transmission=0.5).is_transmissive


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ambient": -0.1},
        {"diffuse": -1.0},
        {"reflection": 1.5},
        {"transmission": 2.0},
        {"phong_size": 0.0},
        {"ior": -1.0},
    ],
)
def test_finish_validation(kwargs):
    with pytest.raises(ValueError):
        Finish(**kwargs)


# -- SolidColor -----------------------------------------------------------------
def test_solid_color_constant():
    t = SolidColor((0.2, 0.4, 0.6))
    p = np.random.default_rng(0).uniform(-5, 5, (10, 3))
    c = t.color_at(p)
    assert c.shape == (10, 3)
    assert np.all(c == [0.2, 0.4, 0.6])


def test_negative_color_rejected():
    with pytest.raises(ValueError):
        SolidColor((-0.1, 0, 0))


# -- Checker -----------------------------------------------------------------------
def test_checker_alternates():
    t = Checker((1, 1, 1), (0, 0, 0))
    p = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [1.5, 1.5, 0.5], [0.5, 0.5, 1.5]])
    c = t.color_at(p)
    np.testing.assert_array_equal(c[0], [1, 1, 1])
    np.testing.assert_array_equal(c[1], [0, 0, 0])
    np.testing.assert_array_equal(c[2], [1, 1, 1])
    np.testing.assert_array_equal(c[3], [0, 0, 0])


def test_checker_stable_on_integer_plane():
    """Points exactly on y=0 (a floor) must not flicker between cells."""
    t = Checker((1, 1, 1), (0, 0, 0))
    p = np.array([[0.5, 0.0, 0.5], [0.5, 1e-12, 0.5], [0.5, -1e-12, 0.5]])
    c = t.color_at(p)
    assert np.all(c == c[0])


@given(points)
@settings(max_examples=40)
def test_checker_only_two_colors(p):
    t = Checker((1, 0, 0), (0, 0, 1))
    c = t.color_at(p)
    for row in c:
        assert tuple(row) in {(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)}


# -- Brick ------------------------------------------------------------------------
def test_brick_mortar_lines():
    t = Brick(brick_color=(1, 0, 0), mortar_color=(0, 1, 0), brick_size=(8, 3, 4.5), mortar=0.5)
    # A point on a course boundary (y = 0) is mortar.
    mortar_pt = np.array([[4.0, 0.1, 2.0]])
    np.testing.assert_array_equal(t.color_at(mortar_pt), [[0, 1, 0]])
    # Deep inside a brick body.
    brick_pt = np.array([[4.0, 1.5, 2.0]])
    np.testing.assert_array_equal(t.color_at(brick_pt), [[1, 0, 0]])


def test_brick_courses_stagger():
    """Adjacent courses shift by half a brick (running bond)."""
    t = Brick(brick_color=(1, 0, 0), mortar_color=(0, 1, 0), brick_size=(8, 3, 4.5), mortar=0.5)
    # x=0.2 is mortar (x-joint) in course 0 but mid-brick in course 1.
    course0 = np.array([[0.2, 1.5, 2.0]])
    course1 = np.array([[0.2, 4.5, 2.0]])
    assert tuple(t.color_at(course0)[0]) == (0, 1, 0)
    assert tuple(t.color_at(course1)[0]) == (1, 0, 0)


def test_brick_validation():
    with pytest.raises(ValueError):
        Brick(brick_size=(0, 3, 4))
    with pytest.raises(ValueError):
        Brick(mortar=5.0)


@given(points)
@settings(max_examples=30)
def test_brick_only_two_colors(p):
    t = Brick(brick_color=(1, 0, 0), mortar_color=(0, 0, 1))
    for row in t.color_at(p):
        assert tuple(row) in {(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)}


# -- pattern transforms ------------------------------------------------------------
def test_texture_scaled():
    t = Checker((1, 1, 1), (0, 0, 0)).scaled(2.0)
    # With a 2x pattern scale, cell boundaries sit at even coordinates.
    c = t.color_at(np.array([[1.5, 0.5, 0.5], [2.5, 0.5, 0.5]]))
    np.testing.assert_array_equal(c[0], [1, 1, 1])
    np.testing.assert_array_equal(c[1], [0, 0, 0])


def test_texture_transform_applied_inverse():
    t = Checker((1, 1, 1), (0, 0, 0), transform=Transform.translate(1, 0, 0))
    # Point (1.5, .5, .5) in world = (0.5, .5, .5) in pattern space -> color A.
    c = t.color_at(np.array([[1.5, 0.5, 0.5]]))
    np.testing.assert_array_equal(c[0], [1, 1, 1])


# -- Material -------------------------------------------------------------------------
def test_material_factories():
    assert Material.chrome().finish.is_reflective
    g = Material.glass()
    assert g.finish.is_transmissive and g.finish.ior == 1.5
    assert Material.mirror().finish.reflection > 0.9
    m = Material.matte((0.5, 0.5, 0.5))
    assert not m.finish.is_reflective and not m.finish.is_transmissive


def test_material_color_at_delegates():
    m = Material.matte((0.25, 0.5, 0.75))
    c = m.color_at(np.zeros((2, 3)))
    np.testing.assert_array_equal(c, [[0.25, 0.5, 0.75]] * 2)
