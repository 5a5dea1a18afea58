"""Tests for coherent render checkpoint/restore."""

import numpy as np
import pytest

from repro.coherence import CoherentRenderer, load_checkpoint, save_checkpoint
from repro.scenes import newton_animation


@pytest.fixture(scope="module")
def anim():
    return newton_animation(n_frames=5, width=48, height=36)


def test_resume_continues_bit_exactly(anim, tmp_path):
    # Uninterrupted reference run.
    ref = CoherentRenderer(anim, grid_resolution=16)
    ref_frames = []
    ref_rays = []
    for _ in range(anim.n_frames):
        rep = ref.render_next()
        ref_frames.append(ref.frame_image())
        ref_rays.append(rep.stats.total)

    # Interrupted run: checkpoint after frame 1, restore, continue.
    first = CoherentRenderer(anim, grid_resolution=16)
    first.render_next()
    first.render_next()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(first, path)
    del first

    resumed = load_checkpoint(anim, path)
    assert resumed.frames_remaining == 3
    for f in range(2, anim.n_frames):
        rep = resumed.render_next()
        np.testing.assert_array_equal(resumed.frame_image(), ref_frames[f])
        # Same dirty sets -> same ray counts: the chain truly continued.
        assert rep.stats.total == ref_rays[f]


def test_failed_save_keeps_the_previous_checkpoint(anim, tmp_path, monkeypatch):
    """A save that dies mid-write (here: the primary map's arrays cannot be
    read once the file is open) leaves the earlier checkpoint intact and no
    stray file beside it; resuming from it continues bit-exactly."""
    ref = CoherentRenderer(anim, grid_resolution=16)
    ref_frames = [(ref.render_next(), ref.frame_image())[1] for _ in range(anim.n_frames)]

    r = CoherentRenderer(anim, grid_resolution=16)
    r.render_next()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(r, path)
    r.render_next()

    class DiskFull:
        def __array__(self, *args, **kwargs):
            raise OSError("disk full")

    monkeypatch.setattr(r.primary, "state", lambda: {"voxels": DiskFull()})
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(r, path)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]

    resumed = load_checkpoint(anim, path)
    assert resumed.frames_remaining == anim.n_frames - 1
    for f in range(1, anim.n_frames):
        resumed.render_next()
        np.testing.assert_array_equal(resumed.frame_image(), ref_frames[f])


def test_checkpoint_before_first_frame(anim, tmp_path):
    r = CoherentRenderer(anim, grid_resolution=16)
    path = tmp_path / "fresh.npz"
    save_checkpoint(r, path)
    resumed = load_checkpoint(anim, path)
    rep = resumed.render_next()
    assert rep.frame == 0
    assert rep.n_computed == anim.camera_at(0).n_pixels


def test_checkpoint_preserves_region_and_range(anim, tmp_path):
    region = np.arange(0, 48 * 36, 2)
    r = CoherentRenderer(
        anim, region=region, grid_resolution=16, first_frame=1, last_frame=4
    )
    r.render_next()
    path = tmp_path / "r.npz"
    save_checkpoint(r, path)
    resumed = load_checkpoint(anim, path)
    np.testing.assert_array_equal(resumed.region, region)
    assert resumed.first_frame == 1 and resumed.last_frame == 4
    assert resumed.frames_remaining == 2


def test_resolution_mismatch_rejected(anim, tmp_path):
    r = CoherentRenderer(anim, grid_resolution=16)
    r.render_next()
    path = tmp_path / "c.npz"
    save_checkpoint(r, path)
    other = newton_animation(n_frames=5, width=32, height=24)
    with pytest.raises(ValueError, match="resolution"):
        load_checkpoint(other, path)


def test_bad_version_rejected(anim, tmp_path):
    """An unknown version, version 1 (the sorted-key map layout), version 2
    (which may hold a supersampled framebuffer) and version 3 (one pixel
    map, no shadow state) are refused before any field is read."""
    r = CoherentRenderer(anim, grid_resolution=16)
    r.render_next()
    path = tmp_path / "v.npz"
    save_checkpoint(r, path)
    data = dict(np.load(path))
    for version in (99, 1, 2, 3):
        data["version"] = np.int64(version)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(anim, path)


def test_resume_mid_range_records_the_same_marks(tmp_path):
    """A frame records only the marks a later frame of its range reads, a
    set that depends on the range alone: a renderer restored mid-range
    recomputes it, so every later frame recomputes the same pixels, keeps
    the same pixel maps and finishes bit-identically."""
    anim = newton_animation(n_frames=7, width=48, height=36)
    rng = dict(grid_resolution=16, first_frame=1, last_frame=6)
    ref = CoherentRenderer(anim, **rng)
    want = []
    for _ in range(5):
        rep = ref.render_next()
        state = {(m, k): v.copy() for m in ("primary", "secondary")
                 for k, v in getattr(ref, m).state().items()}
        want.append((rep.computed_pixels, ref.frame_image(), state))

    first = CoherentRenderer(anim, **rng)
    first.render_next()
    first.render_next()
    save_checkpoint(first, tmp_path / "ckpt.npz")
    resumed = load_checkpoint(anim, tmp_path / "ckpt.npz")
    for computed, image, state in want[2:]:
        rep = resumed.render_next()
        np.testing.assert_array_equal(rep.computed_pixels, computed)
        np.testing.assert_array_equal(resumed.frame_image(), image)
        for m in ("primary", "secondary"):
            for key, array in getattr(resumed, m).state().items():
                np.testing.assert_array_equal(array, state[m, key])
    assert resumed.frames_remaining == 0


def test_resume_with_shadow_coherence(tmp_path):
    """The shadow cache is part of the sequence state: a renderer restored
    mid-sequence with shadow coherence on reuses the same shadow rays on
    every later frame and finishes bit-identically."""
    anim = newton_animation(n_frames=5, width=64, height=48)
    kw = dict(grid_resolution=24, shadow_coherence=True)
    ref = CoherentRenderer(anim, **kw)
    want = [(ref.render_next(), ref.frame_image()) for _ in range(anim.n_frames)]

    first = CoherentRenderer(anim, **kw)
    first.render_next()
    first.render_next()
    save_checkpoint(first, tmp_path / "ckpt.npz")
    resumed = load_checkpoint(anim, tmp_path / "ckpt.npz")
    assert resumed.shadow_cache is not None
    for ref_rep, image in want[2:]:
        rep = resumed.render_next()
        np.testing.assert_array_equal(resumed.frame_image(), image)
        np.testing.assert_array_equal(rep.computed_pixels, ref_rep.computed_pixels)
        np.testing.assert_array_equal(rep.stats.counts, ref_rep.stats.counts)
        assert rep.shadow_rays_saved == ref_rep.shadow_rays_saved
    assert sum(rep.shadow_rays_saved for rep, _ in want[2:]) > 0
