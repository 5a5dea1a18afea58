"""Intersection tests for every primitive, unit + property based."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import MISS, Box, Cylinder, Plane, Sphere, solve_quadratic
from repro.rmath import Transform, normalize

unit_dir = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda d: np.linalg.norm(d) > 1e-3)


def _one_ray(obj, origin, direction):
    o = np.asarray(origin, dtype=float)[None]
    d = normalize(np.asarray(direction, dtype=float))[None]
    t, n = obj.intersect(o, d)
    return float(t[0]), n[0]


# -- solve_quadratic ---------------------------------------------------------
def test_solve_quadratic_two_roots():
    valid, t0, t1 = solve_quadratic(np.array([1.0]), np.array([-3.0]), np.array([2.0]))
    assert valid[0]
    assert t0[0] == pytest.approx(1.0) and t1[0] == pytest.approx(2.0)


def test_solve_quadratic_no_real_roots():
    valid, t0, t1 = solve_quadratic(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert not valid[0]
    assert np.isinf(t0[0]) and np.isinf(t1[0])


def test_solve_quadratic_double_root_at_zero():
    valid, t0, t1 = solve_quadratic(np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert valid[0]
    assert t0[0] == pytest.approx(0.0) and t1[0] == pytest.approx(0.0)


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=50)
def test_solve_quadratic_roots_satisfy_equation(b, c):
    valid, t0, t1 = solve_quadratic(np.array([1.0]), np.array([b]), np.array([c]))
    if valid[0]:
        for r in (t0[0], t1[0]):
            assert r * r + b * r + c == pytest.approx(0.0, abs=1e-6)


# -- sphere ---------------------------------------------------------------------
def test_sphere_head_on():
    s = Sphere.at((0, 0, 0), 1.0)
    t, n = _one_ray(s, (0, 0, -5), (0, 0, 1))
    assert t == pytest.approx(4.0)
    np.testing.assert_allclose(n, [0, 0, -1], atol=1e-12)


def test_sphere_miss():
    s = Sphere.at((0, 0, 0), 1.0)
    t, _ = _one_ray(s, (0, 5, -5), (0, 0, 1))
    assert t == MISS


def test_sphere_from_inside():
    s = Sphere.at((0, 0, 0), 1.0)
    t, n = _one_ray(s, (0, 0, 0), (0, 0, 1))
    assert t == pytest.approx(1.0)
    np.testing.assert_allclose(n, [0, 0, 1], atol=1e-12)


def test_sphere_behind_ray():
    s = Sphere.at((0, 0, -10), 1.0)
    t, _ = _one_ray(s, (0, 0, 0), (0, 0, 1))
    assert t == MISS


def test_sphere_invalid_radius():
    with pytest.raises(ValueError):
        Sphere.at((0, 0, 0), 0.0)


@given(
    center=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
    radius=st.floats(0.1, 3.0),
    d=unit_dir,
)
@settings(max_examples=80)
def test_sphere_hit_point_on_surface(center, radius, d):
    """Any reported hit lies on the sphere and the normal is radial."""
    s = Sphere.at(center, radius)
    origin = np.asarray(center) - 10.0 * normalize(np.asarray(d, dtype=float))
    t, n = _one_ray(s, origin, d)
    assert np.isfinite(t)  # aimed at the center: must hit
    p = origin + t * normalize(np.asarray(d, dtype=float))
    assert np.linalg.norm(p - center) == pytest.approx(radius, rel=1e-6)
    np.testing.assert_allclose(n, (p - center) / radius, atol=1e-6)


def test_sphere_bounds():
    s = Sphere.at((1, 2, 3), 0.5)
    b = s.bounds()
    np.testing.assert_allclose(b.lo, [0.5, 1.5, 2.5])
    np.testing.assert_allclose(b.hi, [1.5, 2.5, 3.5])


# -- plane -----------------------------------------------------------------------
def test_plane_floor_hit():
    p = Plane.from_normal((0, 1, 0), 0.0)
    t, n = _one_ray(p, (0, 2, 0), (0, -1, 0))
    assert t == pytest.approx(2.0)
    np.testing.assert_allclose(n, [0, 1, 0], atol=1e-12)


def test_plane_parallel_ray_misses():
    p = Plane.from_normal((0, 1, 0), 0.0)
    t, _ = _one_ray(p, (0, 1, 0), (1, 0, 0))
    assert t == MISS


def test_plane_offset_d():
    p = Plane.from_normal((0, 1, 0), 2.0)  # the plane y = 2
    t, _ = _one_ray(p, (0, 5, 0), (0, -1, 0))
    assert t == pytest.approx(3.0)


def test_plane_arbitrary_normal():
    n_vec = normalize(np.array([1.0, 1.0, 0.0]))
    p = Plane.from_normal(n_vec, 1.0)
    # Fire along -n from a point at distance 4 along n: hits at t = 3.
    t, n = _one_ray(p, 4.0 * n_vec, -n_vec)
    assert t == pytest.approx(3.0)
    np.testing.assert_allclose(np.abs(n @ n_vec), 1.0, atol=1e-9)


def test_plane_downward_facing():
    p = Plane.from_normal((0, -1, 0), -5.0)  # ceiling at y = 5
    t, _ = _one_ray(p, (0, 0, 0), (0, 1, 0))
    assert t == pytest.approx(5.0)


def test_plane_zero_normal_rejected():
    with pytest.raises(ValueError):
        Plane.from_normal((0, 0, 0), 0.0)


def test_plane_bounds_infinite():
    b = Plane.from_normal((0, 1, 0), 0.0).bounds()
    assert not np.all(np.isfinite(b.lo)) or not np.all(np.isfinite(b.hi))


# -- cylinder ----------------------------------------------------------------------
def test_cylinder_side_hit():
    c = Cylinder.from_endpoints((0, 0, 0), (0, 2, 0), 1.0)
    t, n = _one_ray(c, (-5, 1, 0), (1, 0, 0))
    assert t == pytest.approx(4.0)
    np.testing.assert_allclose(n, [-1, 0, 0], atol=1e-9)


def test_cylinder_cap_hit():
    c = Cylinder.from_endpoints((0, 0, 0), (0, 2, 0), 1.0)
    t, n = _one_ray(c, (0, 5, 0), (0, -1, 0))
    assert t == pytest.approx(3.0)
    np.testing.assert_allclose(n, [0, 1, 0], atol=1e-9)


def test_cylinder_miss_beyond_height():
    c = Cylinder.from_endpoints((0, 0, 0), (0, 2, 0), 1.0)
    t, _ = _one_ray(c, (-5, 3, 0), (1, 0, 0))
    assert t == MISS


def test_cylinder_diagonal_axis():
    c = Cylinder.from_endpoints((0, 0, 0), (2, 2, 0), 0.25)
    mid = np.array([1.0, 1.0, 0.0])
    t, _ = _one_ray(c, mid + np.array([0, 0, -5.0]), (0, 0, 1))
    assert t == pytest.approx(5.0 - 0.25, rel=1e-6)


def test_cylinder_inside_hits_wall():
    c = Cylinder.from_endpoints((0, 0, 0), (0, 2, 0), 1.0)
    t, _ = _one_ray(c, (0, 1, 0), (1, 0, 0))
    assert t == pytest.approx(1.0)


def test_cylinder_validation():
    with pytest.raises(ValueError):
        Cylinder.from_endpoints((0, 0, 0), (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        Cylinder.from_endpoints((0, 0, 0), (0, 1, 0), -1.0)


def test_cylinder_may_touch_covers_and_tightens():
    """The capsule test keeps every box a dense sample of a thin diagonal
    cylinder falls in, and far fewer than its AABB overlaps."""
    c = Cylinder.from_endpoints((0, 0, 0), (4, 4, 0), 0.1)
    single = c.bounds()
    res = np.array([64, 64, 4])
    cell = single.extent / res
    ijk = np.stack(np.meshgrid(*map(np.arange, res), indexing="ij"), axis=-1).reshape(-1, 3)
    lo = single.lo + ijk * cell
    kept = c.may_touch(lo, lo + cell).reshape(tuple(res))
    ang, y = np.meshgrid(np.linspace(0.0, 2.0 * np.pi, 24), np.linspace(0.0, 1.0, 161))
    rim = np.stack([np.cos(ang), y, np.sin(ang)], axis=-1).reshape(-1, 3)
    pts = c.transform.apply_points(np.concatenate([rim, rim * [0, 1, 0]]))  # surface and axis
    cells = np.clip(np.floor((pts - single.lo) / cell).astype(int), 0, res - 1)
    assert kept[tuple(cells.T)].all()
    assert kept.sum() < 0.2 * kept.size


# -- box --------------------------------------------------------------------------
def test_box_head_on():
    b = Box.from_corners((-1, -1, -1), (1, 1, 1))
    t, n = _one_ray(b, (0, 0, -5), (0, 0, 1))
    assert t == pytest.approx(4.0)
    np.testing.assert_allclose(n, [0, 0, -1], atol=1e-12)


def test_box_from_inside():
    b = Box.from_corners((-1, -1, -1), (1, 1, 1))
    t, n = _one_ray(b, (0, 0, 0), (1, 0, 0))
    assert t == pytest.approx(1.0)
    np.testing.assert_allclose(n, [1, 0, 0], atol=1e-12)


def test_box_corner_order_normalized():
    b = Box.from_corners((1, 1, 1), (-1, -1, -1))
    t, _ = _one_ray(b, (0, 0, -5), (0, 0, 1))
    assert t == pytest.approx(4.0)


def test_box_miss():
    b = Box.from_corners((-1, -1, -1), (1, 1, 1))
    t, _ = _one_ray(b, (5, 5, -5), (0, 0, 1))
    assert t == MISS


def test_box_degenerate_rejected():
    with pytest.raises(ValueError):
        Box.from_corners((0, 0, 0), (1, 0, 1))


def test_box_rotated():
    b = Box.from_corners((-1, -1, -1), (1, 1, 1)).moved_by(Transform.rotate_y(np.pi / 4))
    # Head-on along z now hits a rotated face at sqrt(2) from origin.
    t, _ = _one_ray(b, (0, 0, -5), (0, 0, 1))
    assert t == pytest.approx(5 - np.sqrt(2), rel=1e-6)


# -- shared Primitive behaviour ------------------------------------------------------
def test_with_transform_preserves_prim_id():
    s = Sphere.at((0, 0, 0), 1.0, name="ball")
    moved = s.moved_by(Transform.translate(1, 0, 0))
    assert moved.prim_id == s.prim_id
    assert moved.name == s.name
    assert moved is not s
    t, _ = _one_ray(moved, (1, 0, -5), (0, 0, 1))
    assert t == pytest.approx(4.0)


def test_prim_ids_unique():
    a = Sphere.at((0, 0, 0), 1.0)
    b = Sphere.at((0, 0, 0), 1.0)
    assert a.prim_id != b.prim_id


def test_batched_intersection_matches_scalar():
    s = Sphere.at((0.5, 0.5, 0), 1.0)
    rng = np.random.default_rng(42)
    origins = rng.uniform(-5, 5, (64, 3))
    origins[:, 2] = -6.0
    dirs = normalize(rng.uniform(-1, 1, (64, 3)) + [0, 0, 3.0])
    t_batch, n_batch = s.intersect(origins, dirs)
    for i in range(64):
        t_i, n_i = s.intersect(origins[i : i + 1], dirs[i : i + 1])
        assert t_batch[i] == pytest.approx(t_i[0], abs=1e-12) or (
            np.isinf(t_batch[i]) and np.isinf(t_i[0])
        )
        if np.isfinite(t_batch[i]):
            np.testing.assert_allclose(n_batch[i], n_i[0], atol=1e-12)
