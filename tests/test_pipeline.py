"""Tests for the high-level animation pipeline (camera cuts etc.), driven
through the unified :func:`repro.api.render` facade."""

import importlib

import numpy as np
import pytest

import repro
from repro.api import RenderRequest, render
from repro.render import RayTracer
from repro.scenes import newton_animation, orbit_animation, two_shot_animation


def run(anim, **kwargs):
    return render(RenderRequest(workload=anim, engine="animation", **kwargs))


@pytest.fixture(scope="module")
def cut_anim():
    return two_shot_animation(n_frames=6, width=48, height=36)


def test_pipeline_exact_across_camera_cut(cut_anim):
    result = run(cut_anim, grid_resolution=16)
    assert result.sequences == [(0, 3), (3, 6)]
    for f in range(cut_anim.n_frames):
        full, _ = RayTracer(cut_anim.scene_at(f)).render()
        np.testing.assert_array_equal(result.frames[f], full.as_image())


def test_pipeline_chain_restart_at_cut(cut_anim):
    result = run(cut_anim, grid_resolution=16)
    n_px = cut_anim.camera_at(0).n_pixels
    # Frames 0 and 3 are chain starts: everything computed.
    assert result.reports[0].n_computed == n_px
    assert result.reports[3].n_computed == n_px
    # Mid-sequence frames are incremental.
    assert result.reports[1].n_computed < n_px
    assert result.reports[4].n_computed < n_px


def test_pipeline_stats_merge(cut_anim):
    result = run(cut_anim, grid_resolution=16)
    assert result.stats.total == sum(r.stats.total for r in result.reports)
    assert len(result.per_sequence_stats) == 2
    assert sum(s.total for s in result.per_sequence_stats) == result.stats.total
    assert result.total_computed_pixels() + result.total_copied_pixels() == (
        cut_anim.n_frames * cut_anim.camera_at(0).n_pixels
    )


def test_pipeline_shadow_coherence_identical(cut_anim):
    base = run(cut_anim, grid_resolution=16)
    ext = run(cut_anim, grid_resolution=16, shadow_coherence=True)
    np.testing.assert_array_equal(np.asarray(base.frames), np.asarray(ext.frames))
    assert ext.stats.shadow <= base.stats.shadow


def test_pipeline_on_frame_callback():
    anim = newton_animation(n_frames=3, width=32, height=24)
    seen = []
    run(anim, grid_resolution=12,
        on_frame=lambda ev: seen.append((ev.frame, ev.image.shape)))
    assert seen == [(0, (24, 32, 3)), (1, (24, 32, 3)), (2, (24, 32, 3))]


def test_pipeline_on_tile_synthesized_whole_frame():
    # The animation engine doesn't stream wire tiles; the unified surface
    # still delivers one whole-frame tile per frame, already complete.
    anim = newton_animation(n_frames=2, width=32, height=24)
    tiles = []
    run(anim, grid_resolution=12, on_tile=tiles.append)
    assert [(t.frame, t.x0, t.y0, t.x1, t.y1) for t in tiles] == [
        (0, 0, 0, 32, 24),
        (1, 0, 0, 32, 24),
    ]
    assert all(t.frame_complete and t.pixels.shape == (24, 32, 3) for t in tiles)


def test_pipeline_supersampling():
    anim = newton_animation(n_frames=2, width=32, height=24)
    result = run(anim, grid_resolution=12, samples_per_axis=2)
    full, _ = RayTracer(anim.scene_at(1)).render(samples_per_axis=2)
    np.testing.assert_array_equal(result.frames[1], full.as_image())
    with pytest.raises(ValueError):
        run(anim, shadow_coherence=True, samples_per_axis=2)


def test_render_animation_shim_removed():
    """The deprecated entry point's removal timeline has elapsed: neither
    the package root nor the pipeline module may still export it."""
    import repro.pipeline

    assert not hasattr(repro, "render_animation")
    assert not hasattr(repro.pipeline, "render_animation")
    assert "render_animation" not in repro.__all__


def test_moving_camera_runs_no_dda(monkeypatch):
    """The horizon rule: every shot of an orbiting camera is one frame long,
    no later frame can read its marks, so no ray is ever marked — and the
    frames are still a per-frame full render, bit for bit."""
    raytracer = importlib.import_module("repro.render.raytracer")  # repro.render is a function
    anim = orbit_animation(n_frames=4, width=32, height=24)
    calls = []
    real = raytracer.traverse
    monkeypatch.setattr(raytracer, "traverse", lambda *a, **k: calls.append(1) or real(*a, **k))
    result = run(anim, grid_resolution=12)
    assert result.sequences == [(f, f + 1) for f in range(anim.n_frames)]
    assert calls == []
    for f in range(anim.n_frames):
        full, _ = RayTracer(anim.scene_at(f)).render()
        assert result.frames[f].tobytes() == full.as_image().tobytes()
