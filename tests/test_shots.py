"""A task is a shot: no farm unit crosses a camera cut, on any transport or
schedule, and every engine reads its per-frame accounting off one path —
the counts rows each unit result carries."""

import numpy as np
import pytest

from repro.api import RenderRequest, render
from repro.render import RayTracer
from repro.runtime import AnimationSpec, LocalRenderFarm

ORBIT = AnimationSpec("repro.scenes.orbit:orbit_animation", dict(n_frames=4, width=32, height=24))
TWO_SHOT = AnimationSpec(
    "repro.scenes.stress:two_shot_animation", dict(n_frames=6, width=32, height=24)
)
SCHEDULES = [
    ("static", "frame"),
    ("static", "sequence"),
    ("demand", "frame"),
    ("adaptive", "frame"),
]
_FULL: dict = {}


def _full_render(spec) -> np.ndarray:
    """Every frame traced from scratch: the oracle no farm code touches."""
    key = (spec.factory, repr(sorted(spec.kwargs.items())))
    if key not in _FULL:
        anim = spec.build()
        _FULL[key] = np.stack(
            [RayTracer(anim.scene_at(f)).render()[0].as_image() for f in range(anim.n_frames)]
        )
    return _FULL[key]


@pytest.fixture
def policies(monkeypatch):
    """The policy of every farm run in the test, as it was built."""
    built = []
    build = LocalRenderFarm._policy

    def capture(self, units, regions):
        built.append(build(self, units, regions))
        return built[-1]

    monkeypatch.setattr(LocalRenderFarm, "_policy", capture)
    return built


@pytest.mark.parametrize("schedule,mode", SCHEDULES, ids=["-".join(s) for s in SCHEDULES])
@pytest.mark.parametrize("transport", ["process", "tcp"])
@pytest.mark.parametrize("spec", [ORBIT, TWO_SHOT], ids=["orbit", "two_shot"])
def test_no_unit_crosses_a_shot(spec, transport, schedule, mode, policies):
    result = render(RenderRequest(
        workload=spec, engine="farm", transport=transport, executor="process", n_workers=2,
        schedule=schedule, mode=mode, grid_resolution=12,
    ))
    frames = np.asarray(result.frames)
    assert frames.tobytes() == _full_render(spec).tobytes()
    shots = result.sequences
    assert len(shots) == (4 if spec is ORBIT else 2)
    (policy,) = policies
    assert policy.log
    for a in policy.log:
        assert any(s0 <= a.frame0 < a.frame1 <= s1 for s0, s1 in shots), a
        if any(a.frame0 == s0 for s0, _s1 in shots):
            assert a.fresh, a  # a unit that starts a shot renders it from scratch


def test_shadow_coherence_rides_the_pool():
    spec = AnimationSpec.newton(n_frames=4, width=32, height=24)
    result = render(RenderRequest(
        workload=spec, engine="farm", executor="process", n_workers=2, mode="frame",
        grid_resolution=12, shadow_coherence=True,
    ))
    assert np.asarray(result.frames).tobytes() == _full_render(spec).tobytes()
    assert result.shadow_rays_saved > 0
    assert result.shadow_rays_saved == sum(r.shadow_rays_saved for r in result.reports)


@pytest.mark.parametrize("transport", ["process", "tcp"])
def test_farm_totals_are_run_end_totals(transport, tmp_path):
    """The result's per-frame accounting and the telemetry's ``run.end``
    are two folds of the same accepted units: they agree."""
    frames_seen = []
    request = RenderRequest(
        workload="newton", n_frames=3, width=32, height=24, grid_resolution=12,
        engine="farm", transport=transport, n_workers=2, schedule="static", mode="frame",
        telemetry=True, on_frame=frames_seen.append, run_dir=tmp_path / "run",
    )
    result = render(request)
    end = next(e for e in result.events if e["name"] == "run.end")["attrs"]
    assert result.total_computed_pixels() == end["computed_pixels"] > 0
    assert result.total_copied_pixels() == end["copied_pixels"] > 0
    assert result.total_computed_pixels() + result.total_copied_pixels() == 3 * 32 * 24
    assert sum(r.stats.total for r in result.reports) == result.stats.total == end["rays_total"]
    assert [r.frame for r in result.reports] == [0, 1, 2]
    assert result.sequences == [(0, 3)]
    assert [s.total for s in result.per_sequence_stats] == [result.stats.total]
    assert sorted(ev.frame for ev in frames_seen) == [0, 1, 2]
    if transport == "process":  # a pool unit brings its counts with its pixels
        assert [ev.report for ev in sorted(frames_seen, key=lambda ev: ev.frame)] == (
            result.reports
        )
    # Every unit comes back from the spool with the counts it went in with.
    resumed = render(request, run_dir=tmp_path / "run", on_frame=None)
    assert resumed.n_from_checkpoint == resumed.n_tasks
    assert resumed.reports == result.reports


def test_animation_engine_is_the_inline_lane(policies):
    """One lane, one-frame segments, one renderer continued per shot, and
    every frame reported with its counts as soon as it is rendered."""
    seen = []
    result = render(RenderRequest(workload=TWO_SHOT.build(), engine="animation",
                                  grid_resolution=12, on_frame=seen.append))
    (policy,) = policies
    assert [(a.frame0, a.frame1, a.fresh) for a in policy.log] == [
        (0, 1, True), (1, 2, False), (2, 3, False), (3, 4, True), (4, 5, False), (5, 6, False)
    ]
    assert result.n_workers == 1 and result.sequences == [(0, 3), (3, 6)]
    assert [ev.report for ev in seen] == result.reports
    assert np.asarray(result.frames).tobytes() == _full_render(TWO_SHOT).tobytes()


def _held_newton(**build):
    from repro.scene import FunctionAnimation
    from repro.scenes import newton_animation

    base = newton_animation(n_frames=4, width=48, height=36, swing_degrees=0.0)
    return FunctionAnimation(base.base_scene, 4, base.motions, **build)


def _camera(frame, roll=0.0, dolly=0.0):
    from repro.scene import Camera

    return Camera(position=(0.0, 2.2, -7.5 + dolly * frame), look_at=(0.0, 1.8, 0.0),
                  up=(np.sin(roll * frame), np.cos(roll * frame), 0.0),
                  fov_degrees=48.0, width=48, height=36)


def _light_drift():
    """Both Newton lights pushed out by ``1 + 2e-6 * frame``: a change too
    small for ``np.allclose``, and still a different image."""
    from dataclasses import replace

    anim = _held_newton()
    build = anim._build_scene

    def drifted(frame):
        scene = build(frame)
        scene.lights = [replace(light, position=light.position * (1 + 2e-6 * frame))
                        for light in scene.lights]
        return scene

    anim._build_scene = drifted
    return anim


@pytest.mark.parametrize(
    "make, shots",
    [
        (lambda: _held_newton(camera_fn=lambda f: _camera(f, roll=0.02)), 4),
        (lambda: _held_newton(camera_fn=lambda f: _camera(f, dolly=3e-6)), 4),
        (_light_drift, 1),
    ],
    ids=["roll", "dolly", "lights"],
)
def test_a_camera_or_light_change_compares_exactly(make, shots):
    """A rolling camera and a 3e-6 dolly are camera cuts (one-frame shots),
    and a light edit below ``np.allclose``'s tolerance is a full
    invalidation: the animation engine renders every frame bit-identically
    to a per-frame ``RayTracer``."""
    anim = make()
    result = render(RenderRequest(workload=anim, engine="animation", grid_resolution=8))
    assert len(result.sequences) == shots
    full = np.stack([RayTracer(anim.scene_at(f)).render()[0].as_image() for f in range(4)])
    assert np.asarray(result.frames).tobytes() == full.tobytes()
