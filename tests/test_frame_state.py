"""A worker pays each frame's fixed cost once, however many blocks it renders,
and only for its own frames: the voxel grid, a function of every frame, is
swept by the master and shipped."""

import os
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.coherence import change_detection, engine, grid_for_animation
from repro.net import protocol as wire
from repro.runtime import AnimationSpec, LocalRenderFarm, local
from repro.scene import FunctionAnimation
from repro.scenes import newton_animation


def test_a_demand_farm_builds_each_scene_and_change_set_once(monkeypatch):
    spec = AnimationSpec.newton(n_frames=4, width=48, height=36)
    builds, changes = Counter(), Counter()
    build, compute = FunctionAnimation._build_scene, change_detection.changed_voxels

    def counted_build(self, frame):
        builds[frame] += 1
        return build(self, frame)

    def counted_compute(grid, prev, curr):
        changes[id(prev), id(curr)] += 1
        return compute(grid, prev, curr)

    monkeypatch.setattr(FunctionAnimation, "_build_scene", counted_build)
    monkeypatch.setattr(change_detection, "changed_voxels", counted_compute)
    monkeypatch.setattr(local, "_WORKER_CACHE", {})  # the process starts cold
    # In-process lanes share the farm's animation: the master's grid sweep
    # builds every scene, and the lanes render with those very scenes.
    farm = LocalRenderFarm(spec, schedule="demand", executor="serial", grid_resolution=12)
    res = farm.render()
    assert res.n_tasks == 12  # frame division: one unit per block over the whole shot
    assert builds == Counter({0: 1, 1: 1, 2: 1, 3: 1})
    # 0->1, 1->2 and 2->3, each computed once across all twelve units
    assert len(changes) == 3 and set(changes.values()) == {1}
    np.testing.assert_array_equal(res.frames, farm.render_reference().frames)


def test_one_grid_serving_two_animations_keeps_their_change_sets_apart():
    a = newton_animation(n_frames=3, width=32, height=24, swing_degrees=35.0)
    b = newton_animation(n_frames=3, width=32, height=24, swing_degrees=10.0)
    grid = grid_for_animation(a, 12)

    def both(anim, f):
        prev, curr = anim.scene_at(f - 1), anim.scene_at(f)
        once = change_detection.changed_voxels_once(grid, prev, curr, anim.n_frames)
        return once, change_detection.changed_voxels(grid, prev, curr)

    for anim in (a, b, a, b):
        for f in (1, 2):
            once, fresh = both(anim, f)
            assert np.array_equal(once, fresh)
    assert not np.array_equal(both(a, 1)[0], both(b, 1)[0])  # a frame key would mix them
    assert len(change_detection._CHANGE_SETS[grid]) <= a.n_frames


@pytest.mark.usefixtures("no_leaks")
@pytest.mark.parametrize("transport", ["tcp", "process"])
def test_no_worker_sweeps_the_animation(monkeypatch, transport):
    """A worker that swept the animation for the grid bounds would raise
    here (the sweep is patched before the crew forks); every worker renders
    with the bounds the master shipped, bit-identically and with the serial
    tracer's rays."""
    spec = AnimationSpec.newton(n_frames=4, width=48, height=36)
    serial = LocalRenderFarm(
        spec, executor="serial", schedule="static", mode="frame", grid_resolution=12
    )
    expected = serial.render()
    master, real = os.getpid(), grid_for_animation

    def master_only(animation, resolution):
        if os.getpid() != master:
            raise AssertionError("a worker swept the animation")
        return real(animation, resolution)

    monkeypatch.setattr(local, "grid_for_animation", master_only)
    monkeypatch.setattr(engine, "grid_for_animation", master_only)
    monkeypatch.setattr(local, "_WORKER_CACHE", {})  # the crew inherits no grid to reuse
    res = LocalRenderFarm(
        spec, transport=transport, executor="process", schedule="static", mode="frame",
        n_workers=2, grid_resolution=12,
    ).render()
    assert res.n_retries == 0 and res.n_degraded == 0
    assert res.frames.tobytes() == serial.render_reference().frames.tobytes()
    assert res.stats.total == expected.stats.total


def test_shipped_bounds_rebuild_the_masters_grid_bitwise(monkeypatch):
    """The task's grid field crosses pickle and the RNW1 codec bit-exactly,
    and a worker rebuilds the master's lattice from it without a sweep."""
    spec = AnimationSpec.newton(n_frames=4, width=48, height=36)
    swept = grid_for_animation(spec.build(), 12)
    lo, hi = tuple(swept.bounds.lo.tolist()), tuple(swept.bounds.hi.tolist())
    monkeypatch.setattr(local, "grid_for_animation", None)  # a worker never calls it
    for field in (pickle.loads(pickle.dumps((12, lo, hi))), wire.decode(wire.encode((12, lo, hi)))):
        monkeypatch.setattr(local, "_WORKER_CACHE", {})
        grid = local._get_grid(spec, field)
        assert grid.bounds.lo.tobytes() == swept.bounds.lo.tobytes()
        assert grid.bounds.hi.tobytes() == swept.bounds.hi.tobytes()
        assert grid.cell_size.tobytes() == swept.cell_size.tobytes()
        assert grid.n_voxels == swept.n_voxels


def test_an_in_process_lane_renders_with_the_masters_grid(monkeypatch):
    """Change sets are memoized per grid object, so the lanes of an
    in-process farm must use the very grid the master swept."""
    spec = AnimationSpec.newton(n_frames=4, width=48, height=36)
    swept, used = [], []
    real_sweep, real_renderer = grid_for_animation, local.CoherentRenderer

    def sweep(animation, resolution):
        swept.append(real_sweep(animation, resolution))
        return swept[-1]

    class Spy(real_renderer):
        def __init__(self, *args, grid=None, **kw):
            used.append(grid)
            super().__init__(*args, grid=grid, **kw)

    monkeypatch.setattr(local, "_WORKER_CACHE", {})
    monkeypatch.setattr(local, "grid_for_animation", sweep)
    monkeypatch.setattr(local, "CoherentRenderer", Spy)
    LocalRenderFarm(spec, schedule="demand", executor="serial", grid_resolution=12).render()
    assert len(swept) == 1 and len(used) == 12
    assert all(g is swept[0] for g in used)


@pytest.mark.usefixtures("no_leaks")
@pytest.mark.parametrize(
    "transport, schedule", [("inline", "adaptive"), ("process", "demand"), ("tcp", "adaptive")]
)
def test_a_held_shot_runs_no_dda(monkeypatch, tmp_path, transport, schedule):
    """No frame of a held shot has a later change to be read, the fresh
    first frame of every unit included, so no worker calls ``traverse``
    (the stub, patched in before the crew forks, leaves a file behind in
    any process that does) and the frames are still the serial ones."""
    from repro.render import raytracer

    spec = AnimationSpec.newton(n_frames=4, width=48, height=36, swing_degrees=0.0)
    real = raytracer.traverse

    def recorded(*args, **kwargs):
        (tmp_path / f"traverse.{os.getpid()}").touch()
        return real(*args, **kwargs)

    monkeypatch.setattr(raytracer, "traverse", recorded)
    options = {"executor": "serial"} if transport == "inline" else {
        "transport": transport, "executor": "process", "n_workers": 2
    }
    res = LocalRenderFarm(
        spec, schedule=schedule, segment_frames=2, grid_resolution=12, **options
    ).render()
    assert not list(tmp_path.glob("traverse.*"))
    monkeypatch.setattr(raytracer, "traverse", real)
    reference = LocalRenderFarm(spec, executor="serial", grid_resolution=12).render_reference()
    assert res.frames.tobytes() == reference.frames.tobytes()
