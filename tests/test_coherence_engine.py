"""Tests for the incremental coherent renderer — the paper's Figure 3."""

import numpy as np
import pytest

from repro.coherence import CoherentRenderer, grid_for_animation, validate_sequence
from repro.render import RayTracer
from repro.scene import Camera, FunctionAnimation, StaticAnimation


def test_first_frame_computes_everything(moving_ball_animation):
    r = CoherentRenderer(moving_ball_animation, grid_resolution=8)
    rep = r.render_next()
    assert rep.frame == 0
    assert rep.n_computed == moving_ball_animation.camera_at(0).n_pixels
    assert rep.n_copied == 0
    assert rep.stats.total > 0


def test_static_animation_computes_nothing_after_first(simple_scene):
    anim = StaticAnimation(simple_scene, 3)
    r = CoherentRenderer(anim, grid_resolution=8)
    r.render_next()
    rep1 = r.render_next()
    rep2 = r.render_next()
    assert rep1.n_computed == 0 and rep2.n_computed == 0
    assert rep1.stats.total == 0


def test_incremental_equals_full(moving_ball_animation):
    r = CoherentRenderer(moving_ball_animation, grid_resolution=12)
    for f in range(moving_ball_animation.n_frames):
        r.render_next()
        full, _ = RayTracer(moving_ball_animation.scene_at(f)).render()
        np.testing.assert_array_equal(r.framebuffer.data, full.data)


def test_dirty_set_shrinks_work(moving_ball_animation):
    r = CoherentRenderer(moving_ball_animation, grid_resolution=12)
    rep0 = r.render_next()
    rep1 = r.render_next()
    assert 0 < rep1.n_computed < rep0.n_computed
    assert rep1.n_copied > 0


def test_region_restriction(moving_ball_animation):
    cam = moving_ball_animation.camera_at(0)
    region = np.arange(cam.n_pixels // 2)  # top half of the image
    r = CoherentRenderer(moving_ball_animation, region=region, grid_resolution=12)
    rep = r.render_next()
    assert rep.n_computed == region.size
    # Pixels outside the region stay untouched (zero).
    outside = np.arange(cam.n_pixels // 2, cam.n_pixels)
    assert np.all(r.framebuffer.gather(outside) == 0.0)
    # Inside matches the full render.
    full, _ = RayTracer(moving_ball_animation.scene_at(0)).render()
    np.testing.assert_array_equal(r.framebuffer.gather(region), full.gather(region))


def test_region_incremental_equals_full(moving_ball_animation):
    cam = moving_ball_animation.camera_at(0)
    region = np.arange(0, cam.n_pixels, 3)  # a strided subset
    r = CoherentRenderer(moving_ball_animation, region=region, grid_resolution=12)
    for f in range(moving_ball_animation.n_frames):
        r.render_next()
        full, _ = RayTracer(moving_ball_animation.scene_at(f)).render()
        np.testing.assert_array_equal(r.framebuffer.gather(region), full.gather(region))


def test_frame_range(moving_ball_animation):
    r = CoherentRenderer(
        moving_ball_animation, grid_resolution=8, first_frame=2, last_frame=4
    )
    rep = r.render_next()
    assert rep.frame == 2
    assert rep.n_computed == moving_ball_animation.camera_at(0).n_pixels  # chain start
    r.render_next()
    assert r.frames_remaining == 0
    with pytest.raises(StopIteration):
        r.render_next()


def test_run_renders_all(moving_ball_animation):
    r = CoherentRenderer(moving_ball_animation, grid_resolution=8)
    reports = r.run()
    assert [rep.frame for rep in reports] == [0, 1, 2, 3]


def test_camera_move_rejected(simple_scene):
    anim = FunctionAnimation(
        simple_scene,
        3,
        camera_fn=lambda f: Camera(
            position=(f * 1.0, 2, -6), look_at=(0, 1, 0), width=48, height=36
        ),
    )
    r = CoherentRenderer(anim, grid_resolution=8)
    r.render_next()
    with pytest.raises(ValueError, match="camera moved"):
        r.render_next()


def test_invalid_frame_range(moving_ball_animation):
    with pytest.raises(ValueError):
        CoherentRenderer(moving_ball_animation, first_frame=3, last_frame=3)
    with pytest.raises(ValueError):
        CoherentRenderer(moving_ball_animation, first_frame=0, last_frame=99)


def test_invalid_region(moving_ball_animation):
    with pytest.raises(ValueError):
        CoherentRenderer(moving_ball_animation, region=np.array([-1]))


def test_grid_for_animation_covers_all_frames(moving_ball_animation):
    grid = grid_for_animation(moving_ball_animation, 8)
    for f in range(moving_ball_animation.n_frames):
        b = moving_ball_animation.scene_at(f).finite_bounds()
        assert np.all(grid.bounds.lo <= b.lo) and np.all(grid.bounds.hi >= b.hi)


def test_map_entries_tracked(moving_ball_animation):
    r = CoherentRenderer(moving_ball_animation, grid_resolution=8)
    rep = r.render_next()
    assert rep.map_entries > 0
    assert r.primary.n_entries + r.secondary.n_entries == rep.map_entries


def test_validate_sequence_moving_ball(moving_ball_animation):
    rep = validate_sequence(moving_ball_animation, grid_resolution=12)
    assert rep.all_exact
    assert rep.all_conservative
    assert rep.mean_overprediction() >= 1.0


def test_computed_fraction(moving_ball_animation):
    r = CoherentRenderer(moving_ball_animation, grid_resolution=12)
    rep0 = r.render_next()
    assert rep0.computed_fraction == 1.0
    rep1 = r.render_next()
    assert 0.0 < rep1.computed_fraction < 1.0
