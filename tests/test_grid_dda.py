"""Tests for the uniform grid and the vectorized 3-D DDA traversal."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
@example(ox=0.0, oy=0.0, oz=1.0, dx=1.0, dy=1.0, dz=-2.225073858507203e-309)  # on a face, subnormal
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


# -- the filtered marking pass ------------------------------------------------------
def _assert_readable_marks_match(grid, origins, dirs, t_max, readable):
    """Filtered + clipped + masked marks == the unfiltered ``traverse``
    output masked by ``readable``, array for array (one chunk)."""
    from repro.render.raytracer import traverse_readable

    got = traverse_readable(grid, origins, dirs, t_max, readable, chunk_size=len(origins))
    ray_idx, vox = traverse(grid, origins, dirs, t_max)
    inside = np.ones(vox.size, dtype=bool) if readable is None else readable[vox]
    assert got[0].dtype == got[1].dtype == np.int64
    np.testing.assert_array_equal(got[0], ray_idx[inside])
    np.testing.assert_array_equal(got[1], vox[inside])


def _random_masks(grid, rng):
    """Sparse, dense, one-voxel, one-block, full and empty voxel masks."""
    n = grid.n_voxels
    masks = [rng.random(n) < p for p in (0.02, 0.3)]
    one = np.zeros(n, dtype=bool)
    one[rng.integers(n)] = True
    block = np.zeros(tuple(grid.res[::-1]), dtype=bool)  # (z, y, x): flat-id order
    lo = rng.integers(0, grid.res[::-1])
    hi = lo + rng.integers(1, grid.res[::-1] - lo + 1)
    block[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = True
    return [*masks, one, block.ravel(), np.ones(n, dtype=bool), np.zeros(n, dtype=bool), None]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("grid", [_grid(), _ODD_GRID], ids=["cube", "odd"])
def test_readable_marks_match_masked_traverse_on_random_rays(seed, grid):
    rng = np.random.default_rng(200 + seed)
    n = 400
    lo, hi = grid.bounds.lo, grid.bounds.hi
    origins = rng.uniform(lo - 2.0, hi + 2.0, (n, 3))
    dirs = rng.normal(size=(n, 3))
    t_max = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.0, 8.0, n))
    for readable in _random_masks(grid, rng):
        _assert_readable_marks_match(grid, origins, dirs, t_max, readable)


@pytest.mark.parametrize("seed", range(4))
def test_readable_marks_match_on_axis_parallel_and_face_rays(seed):
    rng = np.random.default_rng(300 + seed)
    g = _grid((4, 4, 4))
    n = 300
    origins = rng.integers(-1, 6, (n, 3)).astype(np.float64)
    dirs = rng.integers(-2, 3, (n, 3)).astype(np.float64)
    dirs[rng.random((n, 3)) < 0.1] = -0.0
    dirs[np.all(dirs == 0.0, axis=1)] = (1.0, 0.0, 0.0)
    t_max = np.where(rng.random(n) < 0.5, np.inf, rng.integers(0, 6, n).astype(np.float64))
    for readable in _random_masks(g, rng):
        _assert_readable_marks_match(g, origins, dirs, t_max, readable)


def test_readable_marks_match_on_rays_grazing_the_readable_box():
    """The readable voxels span cells 1..2 on every axis, box [1, 3]^3 padded
    by 0.01: rays run along x at y on and around the box face (3.0), the
    padded face (3.01) and the next cell face (4.0), and stop on, just
    before and just after the faces."""
    g = _grid((4, 4, 4))
    readable = np.zeros(tuple(g.res[::-1]), dtype=bool)
    readable[1:3, 1:3, 1:3] = True
    readable = readable.ravel()
    eps = (0.0, 1e-12, -1e-12, 1e-9, -1e-9)
    ys = [y + e for y in (3.0, 3.01, 2.99, 1.0, 0.99, 4.0) for e in eps]
    starts = [[x, y, 1.5] for x in (-1.0, 3.0, 3.01) for y in ys]
    origins = np.array(starts, dtype=np.float64)
    dirs = np.tile([1.0, 0.0, 0.0], (len(origins), 1))
    back = np.tile([-1.0, 0.0, 0.0], (len(origins), 1))
    for d in (dirs, back, normalize(dirs + [0.0, 1e-9, 0.0])):
        for t_max in (np.inf, 2.0, 4.0, 4.01, 3.99, 5.0):
            _assert_readable_marks_match(g, origins, d, np.full(len(origins), t_max), readable)


def test_readable_marks_in_chunks_are_the_same_rows():
    from repro.render.raytracer import traverse_readable

    rng = np.random.default_rng(7)
    g = _ODD_GRID
    origins = rng.uniform(g.bounds.lo - 2.0, g.bounds.hi + 2.0, (500, 3))
    dirs = rng.normal(size=(500, 3))
    readable = rng.random(g.n_voxels) < 0.2
    whole = traverse_readable(g, origins, dirs, np.inf, readable, chunk_size=500)
    parts = traverse_readable(g, origins, dirs, np.inf, readable, chunk_size=37)
    key = lambda rows: np.sort(rows[0] * g.n_voxels + rows[1])  # noqa: E731
    np.testing.assert_array_equal(key(whole), key(parts))


@pytest.mark.parametrize("masked", [False, True])
def test_marks_by_class_equal_one_traverse_per_class(simple_scene, monkeypatch, masked):
    """The tracer's one marking pass over all classes gives each class the
    rows a per-class ``traverse`` of its concatenated volleys gives, masked
    by ``readable`` when there is one."""
    from repro.render import MARK_CLASSES, RayTracer
    from repro.render import raytracer

    volleys = {c: [] for c in MARK_CLASSES}
    queue = raytracer._LocalBackend.mark

    def spy(self, cls, origins, dirs, t_max, pixels):
        volleys[cls].append((origins, dirs, t_max, pixels))
        queue(self, cls, origins, dirs, t_max, pixels)

    monkeypatch.setattr(raytracer._LocalBackend, "mark", spy)
    grid = UniformGrid.for_scene(simple_scene, 8)
    readable = np.random.default_rng(3).random(grid.n_voxels) < 0.3 if masked else None
    tracer = RayTracer(simple_scene, grid=grid, track_paths=True, readable=readable)
    result = tracer.trace_pixels(simple_scene.camera.pixel_grid())
    for cls in MARK_CLASSES:
        origins, dirs, t_max, pixels = (np.concatenate(col) for col in zip(*volleys[cls]))
        ray_idx, vox = traverse(grid, origins, dirs, t_max)
        keep = slice(None) if readable is None else readable[vox]
        got_v, got_p = result.marks_by_class[cls]
        np.testing.assert_array_equal(got_v, vox[keep])
        np.testing.assert_array_equal(got_p, pixels[ray_idx][keep])
    np.testing.assert_array_equal(
        result.mark_voxels, np.concatenate([result.marks_by_class[c][0] for c in MARK_CLASSES])
    )
