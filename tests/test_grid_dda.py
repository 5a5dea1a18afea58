"""Tests for the uniform grid and the vectorized 3-D DDA traversal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import UniformGrid, traverse
from repro.rmath import AABB, normalize, vec3


def _grid(res=(4, 4, 4), lo=(0, 0, 0), hi=(4, 4, 4)):
    return UniformGrid(AABB(vec3(*lo), vec3(*hi)), res)


# -- grid geometry --------------------------------------------------------------
def test_flatten_unflatten_roundtrip():
    g = _grid((3, 5, 7))
    vids = np.arange(g.n_voxels)
    cells = g.unflatten(vids)
    np.testing.assert_array_equal(g.flatten(cells), vids)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=40)
def test_flatten_bijective(nx, ny, nz):
    g = _grid((nx, ny, nz))
    vids = np.arange(g.n_voxels)
    assert np.unique(g.flatten(g.unflatten(vids))).size == g.n_voxels


def test_cell_of_points_clipped():
    g = _grid()
    cells = g.cell_of_points(np.array([[-1.0, 2.0, 10.0]]))
    np.testing.assert_array_equal(cells[0], [0, 2, 3])


def test_voxel_bounds():
    g = _grid()
    b = g.voxel_bounds(0)
    np.testing.assert_array_equal(b.lo, [0, 0, 0])
    np.testing.assert_array_equal(b.hi, [1, 1, 1])


def test_voxels_overlapping_small_box():
    g = _grid()
    vids = g.voxels_overlapping(AABB(vec3(0.1, 0.1, 0.1), vec3(0.9, 0.9, 0.9)))
    assert vids.tolist() == [0]


def test_voxels_overlapping_spanning_box():
    g = _grid()
    vids = g.voxels_overlapping(AABB(vec3(0.5, 0.5, 0.5), vec3(1.5, 0.9, 0.9)))
    assert sorted(vids.tolist()) == [0, 1]


def test_voxels_overlapping_boundary_exact():
    """A box ending exactly on a cell boundary must not spill over."""
    g = _grid()
    vids = g.voxels_overlapping(AABB(vec3(0, 0, 0), vec3(1.0, 1.0, 1.0)))
    assert vids.tolist() == [0]


def test_voxels_overlapping_outside():
    g = _grid()
    assert g.voxels_overlapping(AABB(vec3(10, 10, 10), vec3(11, 11, 11))).size == 0
    assert g.voxels_overlapping(AABB.empty()).size == 0


def test_grid_validation():
    with pytest.raises(ValueError):
        _grid((0, 4, 4))
    with pytest.raises(ValueError):
        UniformGrid(AABB.empty(), 4)


def test_for_scene(simple_scene):
    g = UniformGrid.for_scene(simple_scene, 8)
    assert g.n_voxels == 512


# -- DDA traversal ----------------------------------------------------------------
def test_axis_aligned_traversal():
    g = _grid()
    o = np.array([[-1.0, 0.5, 0.5]])
    d = np.array([[1.0, 0.0, 0.0]])
    ray_idx, vox = traverse(g, o, d)
    # Crosses all 4 voxels of the row y=0, z=0.
    np.testing.assert_array_equal(ray_idx, [0, 0, 0, 0])
    np.testing.assert_array_equal(np.sort(vox), g.flatten(np.array([[i, 0, 0] for i in range(4)])))


def test_traversal_order_front_to_back():
    g = _grid()
    o = np.array([[-1.0, 0.5, 0.5]])
    d = np.array([[1.0, 0.0, 0.0]])
    _, vox = traverse(g, o, d)
    xs = g.unflatten(vox)[:, 0]
    assert np.all(np.diff(xs) > 0)


def test_t_max_clips_traversal():
    g = _grid()
    o = np.array([[-1.0, 0.5, 0.5]])
    d = np.array([[1.0, 0.0, 0.0]])
    # t_max = 2.5 -> reaches x = 1.5, i.e. cells 0 and 1 only.
    _, vox = traverse(g, o, d, t_max=np.array([2.5]))
    assert np.sort(g.unflatten(vox)[:, 0]).tolist() == [0, 1]


def test_ray_missing_grid():
    g = _grid()
    o = np.array([[10.0, 10.0, 10.0]])
    d = np.array([[1.0, 0.0, 0.0]])
    ray_idx, vox = traverse(g, o, d)
    assert ray_idx.size == 0 and vox.size == 0


def test_ray_starting_inside_grid():
    g = _grid()
    o = np.array([[1.5, 1.5, 1.5]])
    d = np.array([[0.0, 1.0, 0.0]])
    _, vox = traverse(g, o, d)
    ys = np.sort(g.unflatten(vox)[:, 1]).tolist()
    assert ys == [1, 2, 3]


def test_diagonal_traversal_connected():
    """Consecutive visited voxels differ by exactly one step on one axis."""
    g = _grid((8, 8, 8), (0, 0, 0), (8, 8, 8))
    o = np.array([[-0.5, 0.3, 0.7]])
    d = normalize(np.array([[1.0, 0.8, 0.6]]))
    _, vox = traverse(g, o, d)
    cells = g.unflatten(vox)
    diffs = np.abs(np.diff(cells, axis=0)).sum(axis=1)
    assert np.all(diffs == 1)


def test_multiple_rays_batched():
    g = _grid()
    o = np.array([[-1.0, 0.5, 0.5], [0.5, -1.0, 2.5]])
    d = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ray_idx, vox = traverse(g, o, d)
    assert set(ray_idx.tolist()) == {0, 1}
    assert (ray_idx == 0).sum() == 4
    assert (ray_idx == 1).sum() == 4


def test_empty_batch():
    g = _grid()
    ray_idx, vox = traverse(g, np.empty((0, 3)), np.empty((0, 3)))
    assert ray_idx.size == 0


def _per_step_traverse(grid, origins, dirs, t_max=np.inf):
    """The DDA as a per-step loop over ``(N, 3)`` state with ``argmin``
    axis choice: the oracle :func:`traverse` must match element for
    element."""
    from repro.rmath import ray_aabb_intersect

    n = origins.shape[0]
    t_max = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (n,)).copy()
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / dirs
    hit, t_enter, t_exit = ray_aabb_intersect(
        origins, inv, grid.bounds.lo, grid.bounds.hi, t_max=t_max
    )
    active = hit & (t_enter <= t_exit)
    with np.errstate(invalid="ignore"):  # entry points of rays that miss are inf/nan
        cell = grid.cell_of_points(origins + (t_enter + 1e-12)[:, None] * dirs)
        step = np.sign(dirs).astype(np.int64)
        t_delta = np.abs(grid.cell_size * inv)
        next_boundary = grid.bounds.lo + (cell + (step > 0)) * grid.cell_size
        t_next = (next_boundary - origins) * inv
    t_next = np.where(dirs != 0.0, t_next, np.inf)
    out_ray, out_vox = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for _ in range(int(grid.res.sum()) + 3):
        if not np.any(active):
            break
        rows = np.flatnonzero(active)
        out_ray.append(rows)
        out_vox.append(grid.flatten(cell[rows]))
        axis = np.argmin(t_next[rows], axis=1)
        cell[rows, axis] += step[rows, axis]
        crossed_t = t_next[rows, axis]
        t_next[rows, axis] += t_delta[rows, axis]
        alive = (
            (cell[rows, axis] >= 0) & (cell[rows, axis] < grid.res[axis])
            & (crossed_t <= t_exit[rows])
        )
        active[rows[~alive]] = False
    return np.concatenate(out_ray), np.concatenate(out_vox)


def _assert_matches_oracle(grid, origins, dirs, t_max=np.inf):
    got = traverse(grid, origins, dirs, t_max)
    want = _per_step_traverse(grid, origins, dirs, t_max)
    assert got[0].dtype == got[1].dtype == np.int64
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


_ODD_GRID = UniformGrid(AABB(vec3(-1.5, 0.25, -3.0), vec3(2.5, 3.25, 4.0)), (5, 3, 7))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("grid", [_grid(), _ODD_GRID], ids=["cube", "odd"])
def test_traverse_matches_per_step_oracle(seed, grid):
    """Random origins inside and outside the grid, finite and infinite
    ``t_max``: identical (ray, voxel) arrays, row for row."""
    rng = np.random.default_rng(seed)
    n = 400
    lo, hi = grid.bounds.lo, grid.bounds.hi
    origins = rng.uniform(lo - 2.0, hi + 2.0, (n, 3))
    dirs = rng.normal(size=(n, 3))
    t_max = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.0, 8.0, n))
    _assert_matches_oracle(grid, origins, dirs, t_max)
    _assert_matches_oracle(grid, origins, dirs)


@pytest.mark.parametrize("seed", range(4))
def test_traverse_matches_oracle_on_axis_parallel_and_face_rays(seed):
    """Directions with zero (and negative-zero) components, and origins on
    cell faces, edges and corners: where ties between axes happen."""
    rng = np.random.default_rng(100 + seed)
    g = _grid((4, 4, 4))
    n = 300
    origins = rng.integers(-1, 6, (n, 3)).astype(np.float64)
    origins[: n // 3] += rng.uniform(0.0, 1.0, (n // 3, 3)) * (rng.random((n // 3, 3)) < 0.5)
    dirs = rng.integers(-2, 3, (n, 3)).astype(np.float64)
    dirs[np.all(dirs == 0.0, axis=1)] = (1.0, 0.0, 0.0)
    dirs[rng.random((n, 3)) < 0.1] = -0.0
    dirs[np.all(dirs == 0.0, axis=1)] = (0.0, -1.0, 0.0)
    t_max = np.where(rng.random(n) < 0.5, np.inf, rng.integers(0, 6, n).astype(np.float64))
    _assert_matches_oracle(g, origins, dirs, t_max)
    _assert_matches_oracle(g, origins, dirs)


@given(
    ox=st.floats(-2, 6),
    oy=st.floats(-2, 6),
    oz=st.floats(-2, 6),
    dx=st.floats(-1, 1),
    dy=st.floats(-1, 1),
    dz=st.floats(-1, 1),
)
@settings(max_examples=120, deadline=None)
def test_sampled_ray_points_are_in_visited_voxels(ox, oy, oz, dx, dy, dz):
    """Property: densely sampled points along the clipped ray must lie in
    voxels the DDA reported (no gaps in coverage)."""
    d = np.array([dx, dy, dz])
    if np.linalg.norm(d) < 1e-3:
        return
    d = d / np.linalg.norm(d)
    g = _grid()
    o = np.array([ox, oy, oz])
    t_max = 12.0
    ray_idx, vox = traverse(g, o[None], d[None], t_max=np.array([t_max]))
    visited = set(vox.tolist())
    interior_lo = g.bounds.lo + 1e-9
    interior_hi = g.bounds.hi - 1e-9
    for t in np.linspace(1e-6, t_max, 400):
        p = o + t * d
        if np.all(p > interior_lo) and np.all(p < interior_hi):
            cell = g.cell_of_points(p[None])[0]
            vid = int(g.flatten(cell[None])[0])
            # Tolerate boundary ambiguity: accept if p is within a hair of a
            # visited voxel's bounds.
            if vid not in visited:
                ok = any(
                    g.voxel_bounds(v).expanded(1e-6).contains_point(p) for v in visited
                )
                assert ok, f"point {p} at t={t} in voxel {vid} not covered by {visited}"
