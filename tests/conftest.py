"""Shared fixtures: small scenes, animations and a tiny cost oracle.

Everything here is deliberately low-resolution so the full suite runs in
seconds; the benchmarks exercise paper-scale parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Plane, Sphere
from repro.lighting import PointLight
from repro.materials import Checker, Material
from repro.parallel import build_oracle
from repro.rmath import Transform
from repro.scene import Camera, FunctionAnimation, Scene
from repro.scenes import newton_animation


@pytest.fixture
def simple_scene() -> Scene:
    """Floor + chrome ball + glass ball + matte ball, one light."""
    cam = Camera(position=(0, 2, -6), look_at=(0, 1, 0), width=48, height=36, fov_degrees=60)
    objects = [
        Plane.from_normal(
            (0, 1, 0),
            0.0,
            material=Material.textured(Checker((1, 1, 1), (0.1, 0.1, 0.1))),
            name="floor",
        ),
        Sphere.at((0, 1, 0), 0.8, material=Material.chrome(), name="chrome"),
        Sphere.at((1.6, 0.6, -1.2), 0.6, material=Material.glass(), name="glass"),
        Sphere.at((-1.8, 0.5, 0.8), 0.5, material=Material.matte((0.8, 0.2, 0.2)), name="matte"),
    ]
    return Scene(
        camera=cam,
        objects=objects,
        lights=[PointLight(np.array([5.0, 8.0, -5.0]), np.array([1.0, 1.0, 1.0]))],
        background=np.array([0.2, 0.3, 0.5]),
    )


@pytest.fixture
def moving_ball_animation(simple_scene) -> FunctionAnimation:
    """The matte ball slides along +x, everything else static."""
    return FunctionAnimation(
        simple_scene,
        n_frames=4,
        motions={"matte": lambda f: Transform.translate(0.3 * f, 0.0, 0.0)},
    )


@pytest.fixture(scope="session")
def tiny_newton_animation():
    return newton_animation(n_frames=5, width=64, height=48)


@pytest.fixture(scope="session")
def tiny_oracle(tiny_newton_animation):
    """A real measured oracle of a 5-frame 64x48 Newton run (built once)."""
    return build_oracle(tiny_newton_animation, grid_resolution=16)


@pytest.fixture
def kill_drill():
    """``drill(make_farm, reference) -> (recovery, event names)``: the one
    worker-loss drill, whatever the transport.  The plan carries the entry
    each transport honours — the pool process running task 1 exits, TCP
    daemon 0 exits inside a unit, after its first rendered frame — and
    ``make_farm(**options)`` builds the farm under test around it."""
    from repro.runtime import FaultPlan
    from repro.telemetry import InMemorySink, Telemetry, validate_events

    plan = FaultPlan([FaultPlan.crash(1), FaultPlan.kill_worker(0, 1, "frames")])

    def drill(make_farm, reference):
        sink = InMemorySink()
        tel = Telemetry(sinks=(sink,))
        out = make_farm(fault_plan=plan, telemetry=tel).render()
        tel.close()
        assert np.array_equal(out.frames, reference.frames)
        assert out.recovery["crashes"] >= 1 and out.recovery["retries"] >= 1
        assert out.n_crashes == out.recovery["crashes"]
        validate_events(sink.events)
        names = {r["name"] for r in sink.events}
        assert "recovery" in names
        return out.recovery, names

    return drill


#: /status fields derived from the fold's wall clock rather than the stream.
_CLOCK_KEYS = ("elapsed", "tasks_per_sec", "eta_seconds")


def _stream_state(snapshot: dict) -> dict:
    snap = {k: v for k, v in snapshot.items() if k not in _CLOCK_KEYS}
    snap["workers"] = [
        {k: v for k, v in w.items() if k != "heartbeat_age"} for w in snap["workers"]
    ]
    snap["in_flight"] = [
        {k: v for k, v in a.items() if k not in ("age", "since")} for a in snap["in_flight"]
    ]
    return snap


@pytest.fixture
def assert_one_fold():
    """``check(events)``: a fold attached to a live session and fed the
    records one at a time (views polled as it goes) ends in the same
    state as ``RunFold.of(events)`` — every view of it equal."""
    from itertools import count

    from repro.telemetry import RunFold, Telemetry

    def check(events) -> RunFold:
        live = RunFold(clock=count().__next__)
        tel = Telemetry(sinks=[live])
        for i, rec in enumerate(events):
            tel.emit(dict(rec))
            if i % 7 == 0:
                live.snapshot(), live.exposition(), live.report(), live.utilization()
        offline = RunFold.of(events)
        assert _stream_state(live.snapshot()) == _stream_state(offline.snapshot())
        assert live.exposition() == offline.exposition()
        assert live.report() == offline.report()
        assert live.utilization() == offline.utilization()
        assert live.utilization(1.0) == offline.utilization(1.0)
        return offline

    return check
