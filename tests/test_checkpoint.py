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
    """An unknown version, and version 1 (the sorted-key map layout), are
    refused before any field is read."""
    r = CoherentRenderer(anim, grid_resolution=16)
    r.render_next()
    path = tmp_path / "v.npz"
    save_checkpoint(r, path)
    data = dict(np.load(path))
    for version in (99, 1):
        data["version"] = np.int64(version)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(anim, path)
