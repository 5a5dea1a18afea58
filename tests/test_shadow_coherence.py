"""Tests for the shadow-coherence extension."""

import numpy as np
import pytest

from repro.coherence import CoherentRenderer, ShadowCoherentRenderer
from repro.render import RayTracer, ShadowCache
from repro.rmath import Transform
from repro.scene import FunctionAnimation
from repro.scenes import newton_animation


# -- ShadowCache unit behaviour --------------------------------------------------
def test_cache_lookup_store_roundtrip():
    c = ShadowCache(10, 2)
    c.store(np.array([3, 5]), 1, np.array([0.25, 0.75]))
    c.set_reusable(np.array([3]))
    vals, reuse = c.lookup(np.array([3, 5]), 1)
    np.testing.assert_array_equal(vals, [0.25, 0.75])
    np.testing.assert_array_equal(reuse, [True, False])


def test_cache_set_reusable_resets():
    c = ShadowCache(5, 1)
    c.set_reusable(np.array([0, 1]))
    c.set_reusable(np.array([4]))
    assert not c.reusable[0] and c.reusable[4]
    c.set_reusable(np.empty(0, dtype=np.int64))
    assert not c.reusable.any()


def test_cache_validation():
    with pytest.raises(ValueError):
        ShadowCache(0, 1)


def test_tracer_rejects_mismatched_cache(simple_scene):
    cache = ShadowCache(7, len(simple_scene.lights))
    with pytest.raises(ValueError, match="resolution"):
        RayTracer(simple_scene, shadow_cache=cache)
    cache2 = ShadowCache(simple_scene.camera.n_pixels, 99)
    with pytest.raises(ValueError, match="light count"):
        RayTracer(simple_scene, shadow_cache=cache2)


def test_tracer_rejects_supersampling_with_cache(simple_scene):
    cache = ShadowCache(simple_scene.camera.n_pixels, len(simple_scene.lights))
    tracer = RayTracer(simple_scene, shadow_cache=cache)
    with pytest.raises(ValueError, match="samples_per_axis"):
        tracer.trace_pixels(np.arange(4), samples_per_axis=2)


# -- mark segregation -----------------------------------------------------------
def test_marks_by_class_partition_total(simple_scene):
    tracer = RayTracer(simple_scene, track_paths=True)
    res = tracer.trace_pixels(simple_scene.camera.pixel_grid())
    total = sum(v.size for v, _ in res.marks_by_class.values())
    assert total == res.mark_voxels.size
    assert res.marks_by_class["camera"][0].size > 0
    assert res.marks_by_class["pshadow"][0].size > 0
    assert res.marks_by_class["secondary"][0].size > 0  # chrome + glass spawn children


# -- the renderer ----------------------------------------------------------------
@pytest.fixture(scope="module")
def shadow_anim():
    return newton_animation(n_frames=4, width=64, height=48)


def test_shadow_coherent_exactness(shadow_anim):
    r = ShadowCoherentRenderer(shadow_anim, grid_resolution=24)
    for f in range(shadow_anim.n_frames):
        r.render_next()
        full, _ = RayTracer(shadow_anim.scene_at(f)).render()
        np.testing.assert_array_equal(r.frame_image(), full.as_image())


def test_shadow_rays_actually_saved(shadow_anim):
    r = ShadowCoherentRenderer(shadow_anim, grid_resolution=24)
    base = CoherentRenderer(shadow_anim, grid_resolution=24)
    saved = 0
    for f in range(shadow_anim.n_frames):
        rep = r.render_next()
        brep = base.render_next()
        saved += rep.shadow_rays_saved
        # Same dirty sets, never more shadow rays than the base engine.
        assert rep.n_computed == brep.n_computed
        assert rep.stats.shadow <= brep.stats.shadow
        assert rep.stats.camera == brep.stats.camera
    assert saved > 0
    assert r.total_shadow_rays_saved == saved


def test_is_the_base_renderer_except_for_shadow_rays(shadow_anim):
    r = ShadowCoherentRenderer(shadow_anim, grid_resolution=24)
    base = CoherentRenderer(shadow_anim, grid_resolution=24)
    assert isinstance(r, CoherentRenderer)
    for _ in range(shadow_anim.n_frames):
        rep, brep = r.render_next(), base.render_next()
        np.testing.assert_array_equal(r.frame_image(), base.frame_image())
        assert (rep.frame, rep.n_computed, rep.n_copied, rep.n_changed_voxels) == (
            brep.frame, brep.n_computed, brep.n_copied, brep.n_changed_voxels
        )
        np.testing.assert_array_equal(rep.computed_pixels, brep.computed_pixels)
        # Only shadow rays may differ, and only downwards.
        assert rep.stats.total - rep.stats.shadow == brep.stats.total - brep.stats.shadow
        assert brep.stats.shadow - rep.stats.shadow == rep.shadow_rays_saved
    assert r.reports[-1] is rep and r.frames_remaining == 0


def test_shot_end_records_no_marks_and_changes_nothing(shadow_anim):
    """A shot's last frame records no marks.  Against a renderer whose range
    runs on (so it marks every frame, as before the horizon rule), the
    frames, ray counts and per-frame shadow savings are identical."""
    shot = ShadowCoherentRenderer(shadow_anim, grid_resolution=24, last_frame=3)
    longer = ShadowCoherentRenderer(shadow_anim, grid_resolution=24)
    for _ in range(3):
        rep, ref = shot.render_next(), longer.render_next()
        assert shot.frame_image().tobytes() == longer.frame_image().tobytes()
        assert rep.stats.as_dict() == ref.stats.as_dict()
        assert rep.shadow_rays_saved == ref.shadow_rays_saved
    assert shot.total_shadow_rays_saved == longer.total_shadow_rays_saved > 0
    # The last frame re-traced pixels without touching the maps.
    assert shot.reports[-1].n_computed > 0
    assert shot.reports[-1].map_entries == shot.reports[-2].map_entries
    assert longer.reports[-1].map_entries != shot.reports[-1].map_entries


def test_reusable_is_subset_of_dirty(shadow_anim):
    r = ShadowCoherentRenderer(shadow_anim, grid_resolution=24)
    r.render_next()
    scene_prev = shadow_anim.scene_at(0)
    scene_next = shadow_anim.scene_at(1)
    dirty, reusable, _ = r.predict(scene_prev, scene_next)
    assert np.all(np.isin(reusable, dirty))
    assert reusable.size < dirty.size  # the moving marble's own pixels re-fire


def test_full_invalidation_disables_reuse(simple_scene):
    """A light edit kills the cache for that frame."""
    from repro.lighting import PointLight

    def make(f):
        return Transform.identity()

    anim = FunctionAnimation(simple_scene, 3, motions={"matte": make})
    # Mutate the light between frames by wrapping scene_at.
    orig = anim.scene_at

    def scene_at(f):
        s = orig(f)
        if f == 2:
            s.lights = [PointLight(np.array([0.0, 9.0, -5.0]), np.ones(3))]
        return s

    anim.scene_at = scene_at
    r = ShadowCoherentRenderer(anim, grid_resolution=16)
    r.render_next()
    r.render_next()
    rep = r.render_next()  # light moved -> full recompute, no reuse
    assert rep.n_computed == simple_scene.camera.n_pixels
    assert rep.n_shadow_reusable == 0
    full, _ = RayTracer(anim.scene_at(2)).render()
    np.testing.assert_array_equal(r.frame_image(), full.as_image())


def test_region_restricted(shadow_anim):
    cam = shadow_anim.camera_at(0)
    region = np.arange(cam.n_pixels // 2)
    r = ShadowCoherentRenderer(shadow_anim, region=region, grid_resolution=24)
    for f in range(2):
        r.render_next()
    full, _ = RayTracer(shadow_anim.scene_at(1)).render()
    np.testing.assert_array_equal(r.framebuffer.gather(region), full.gather(region))


def test_run_and_stopiteration(shadow_anim):
    r = ShadowCoherentRenderer(shadow_anim, grid_resolution=16)
    reports = r.run()
    assert len(reports) == shadow_anim.n_frames
    with pytest.raises(StopIteration):
        r.render_next()


def test_invalid_ranges(shadow_anim):
    with pytest.raises(ValueError):
        ShadowCoherentRenderer(shadow_anim, first_frame=4, last_frame=4)
    with pytest.raises(ValueError):
        ShadowCoherentRenderer(shadow_anim, region=np.array([-1]))
