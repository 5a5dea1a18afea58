"""Tests for AnimationSpec and the real local render farm."""

import numpy as np
import pytest

from repro.runtime import AnimationSpec, LocalRenderFarm
from repro.scene import Animation


def test_spec_resolves_and_builds():
    spec = AnimationSpec.newton(n_frames=2, width=16, height=12)
    anim = spec.build()
    assert isinstance(anim, Animation)
    assert anim.n_frames == 2


def test_spec_colon_and_dot_paths():
    a = AnimationSpec("repro.scenes.newton:newton_animation", {"n_frames": 2, "width": 16, "height": 12})
    b = AnimationSpec("repro.scenes.newton.newton_animation", {"n_frames": 2, "width": 16, "height": 12})
    assert a.build().n_frames == b.build().n_frames == 2


def test_spec_bad_paths():
    with pytest.raises(ValueError):
        AnimationSpec("justafunction").resolve()
    with pytest.raises(ValueError):
        AnimationSpec("repro.scenes.newton:no_such_fn").resolve()
    with pytest.raises(ModuleNotFoundError):
        AnimationSpec("no.such.module:fn").resolve()


def test_spec_non_animation_factory():
    spec = AnimationSpec("repro.scenes.newton:newton_scene", {"width": 16, "height": 12})
    with pytest.raises(TypeError):
        spec.build()


@pytest.fixture(scope="module")
def spec():
    return AnimationSpec.newton(n_frames=3, width=48, height=36)


@pytest.fixture(scope="module")
def reference(spec):
    farm = LocalRenderFarm(spec, mode="frame", executor="serial", grid_resolution=12)
    return farm.render_reference()


@pytest.fixture(scope="module")
def coherent(spec):
    """The rays of one coherent renderer over the whole shot."""
    from repro.api import render

    return render(workload=spec, engine="animation", grid_resolution=12).stats


def test_frame_division_serial_matches_reference(spec, reference, coherent):
    farm = LocalRenderFarm(spec, mode="frame", executor="serial", grid_resolution=12)
    res = farm.render()
    assert res.n_tasks == 12  # 4x3 default block grid
    np.testing.assert_array_equal(res.frames, reference.frames)
    assert res.stats.total == coherent.total < reference.stats.total


def test_sequence_division_serial_matches_reference(spec, reference, coherent):
    farm = LocalRenderFarm(
        spec, n_workers=2, mode="sequence", executor="serial", grid_resolution=12
    )
    res = farm.render()
    assert res.n_tasks == 2
    np.testing.assert_array_equal(res.frames, reference.frames)
    # Sequence division restarts a chain mid-animation: strictly more rays.
    assert res.stats.total > coherent.total


def test_thread_executor_matches(spec, reference):
    farm = LocalRenderFarm(spec, n_workers=2, mode="frame", executor="thread", grid_resolution=12)
    res = farm.render()
    np.testing.assert_array_equal(res.frames, reference.frames)


def test_process_executor_matches(spec, reference):
    farm = LocalRenderFarm(spec, n_workers=2, mode="frame", executor="process", grid_resolution=12)
    res = farm.render()
    np.testing.assert_array_equal(res.frames, reference.frames)


def test_farm_validation(spec):
    with pytest.raises(ValueError):
        LocalRenderFarm(spec, mode="nope")
    with pytest.raises(ValueError):
        LocalRenderFarm(spec, executor="nope")
    with pytest.raises(ValueError):
        LocalRenderFarm(spec, n_workers=0)


def test_farm_result_shape(spec, reference):
    anim = spec.build()
    cam = anim.camera_at(0)
    assert reference.frames.shape == (anim.n_frames, cam.height, cam.width, 3)
    assert reference.n_frames == anim.n_frames


def test_fixed_unit_leaves_no_parked_renderer(spec, reference):
    """Nothing continues a ``demand`` unit, so its renderer's horizon is the
    unit's end: its last frame records no marks and nothing is parked in the
    continuation cache, even for a unit that ends before the animation does
    (the first of the ``sequence`` list's frame ranges)."""
    from repro.runtime import local

    local._SEGMENT_CACHE.clear()
    farm = LocalRenderFarm(
        spec, n_workers=2, mode="sequence", schedule="demand", executor="serial",
        grid_resolution=12,
    )
    res = farm.render()
    assert res.n_tasks == 2  # frames [0, 2) and [2, 3)
    assert local._SEGMENT_CACHE == {}
    np.testing.assert_array_equal(res.frames, reference.frames)
