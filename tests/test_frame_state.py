"""A worker pays each frame's fixed cost once, however many blocks it renders."""

from collections import Counter

import numpy as np

from repro.coherence import change_detection, grid_for_animation
from repro.runtime import AnimationSpec, LocalRenderFarm, local
from repro.scene import FunctionAnimation
from repro.scenes import newton_animation


def test_a_demand_farm_builds_each_scene_and_change_set_once(monkeypatch):
    spec = AnimationSpec.newton(n_frames=4, width=48, height=36)
    farm = LocalRenderFarm(spec, schedule="demand", executor="serial", grid_resolution=12)
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
    monkeypatch.setattr(local, "_WORKER_CACHE", {})  # the worker starts cold
    res = farm.render()
    assert res.n_tasks == 24  # 12 blocks x 2 frame chunks, each chunk one transition
    assert builds == Counter({0: 1, 1: 1, 2: 1, 3: 1})
    assert len(changes) == 2 and set(changes.values()) == {1}  # 0->1 and 2->3
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
