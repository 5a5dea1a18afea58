"""Shared fixtures: small scenes, animations and a tiny cost oracle.

Everything here is deliberately low-resolution so the full suite runs in
seconds; the benchmarks exercise paper-scale parameters.
"""

from __future__ import annotations

import glob
import os
import time
from pathlib import Path

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
    ``make_farm(**options)`` builds the farm under test around it.

    Both masters must tell the loss the same way: the policy reassigned
    the unit, there is one ``obs.flight`` per dispatch (a failed one for
    the loss), the attempt log numbers each unit by its ordinal and its
    0-based dispatch count, and every ``recovery`` event names a lane."""
    from repro.runtime import FaultPlan
    from repro.telemetry import InMemorySink, Telemetry, validate_events

    plan = FaultPlan([FaultPlan.crash(1), FaultPlan.kill_worker(0, 1, "frames")])

    def drill(make_farm, reference):
        sink = InMemorySink()
        tel = Telemetry(sinks=(sink,))
        farm = make_farm(fault_plan=plan, telemetry=tel)
        policies = []
        build = farm._policy
        farm._policy = lambda units, regions: policies.append(build(units, regions)) or policies[-1]
        out = farm.render()
        tel.close()
        assert np.array_equal(out.frames, reference.frames)
        assert out.recovery["crashes"] >= 1 and out.recovery["retries"] >= 1
        assert out.n_crashes == out.recovery["crashes"]
        assert policies[0].n_reassigned >= 1
        validate_events(sink.events)
        names = {r["name"] for r in sink.events}
        assert "recovery" in names

        flights = [r for r in sink.events if r["name"] == "obs.flight"]
        assert len(flights) == len(out.attempts) == out.n_tasks == len(policies[0].log)
        assert any(f["attrs"]["outcome"] != "ok" for f in flights)
        assert sorted((f["attrs"]["outcome"], f["attrs"]["attempt"]) for f in flights) == sorted(
            (a.outcome, a.attempt) for a in out.attempts
        )
        by_unit: dict = {}
        for a in out.attempts:
            by_unit.setdefault(a.task_index, []).append(a)
        assert sorted(by_unit) == list(range(len(by_unit)))  # ordinals, first-dispatch order
        for tries in by_unit.values():
            assert [a.attempt for a in tries] == list(range(len(tries)))
            assert [a.outcome for a in tries][-1] == "ok"
            assert all(a.outcome != "ok" for a in tries[:-1])
        lanes = {f["attrs"]["worker"] for f in flights}
        recoveries = [r["attrs"] for r in sink.events if r["name"] == "recovery"]
        assert recoveries and all(r["worker"] in lanes for r in recoveries)
        return out.recovery, names

    return drill


def _live_children() -> list:
    """Processes this one started that are still running (zombies awaiting
    a reap are not running; the interpreter's shared-memory resource
    tracker lives until exit and is not a leak)."""
    me, out = str(os.getpid()), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        pid_dir = Path(stat).parent
        try:
            state, ppid = Path(stat).read_text().rsplit(")", 1)[1].split()[:2]
            cmdline = (pid_dir / "cmdline").read_bytes()
        except (OSError, ValueError):
            continue  # the process ended while we were looking
        if ppid == me and state != "Z" and b"multiprocessing.resource_tracker" not in cmdline:
            out.append(int(pid_dir.name))
    return out


def _listening_sockets() -> set:
    """Inodes of this process's sockets that are in the LISTEN state."""
    mine = set()
    for fd in glob.glob("/proc/self/fd/*"):
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            mine.add(target[8:-1])
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        listening.update(cols[9] for cols in map(str.split, rows) if len(cols) > 9 and cols[3] == "0A")
    return mine & listening


@pytest.fixture
def no_leaks(monkeypatch):
    """Fail a test that leaves behind a ``/dev/shm/reprobuf_*`` segment of its own, a
    live child process (given two seconds to exit), more ``default_pool()``
    buffers outstanding than it found, or a listening socket — the checks
    the perf ledger runs after every request, so that a dropped late
    result or a retired lane provably strands nothing.  The finished frame
    stack a farm hands its caller is the caller's to release, so each one
    taken is discounted."""
    from repro.buffers import SEGMENT_PREFIX, default_pool
    from repro.dfb import FrameAssembler

    handed = []
    take = FrameAssembler.take_frames

    def take_frames(self):
        if self.pool is default_pool():
            handed.append(None)
        return take(self)

    monkeypatch.setattr(FrameAssembler, "take_frames", take_frames)
    outstanding = default_pool().stats()["n_outstanding"]
    yield
    problems = []
    # /dev/shm is machine-wide: only the segments of farms this process ran.
    segments = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_{os.getpid()}x*")
    if segments:
        problems.append(f"shared-memory segments left: {segments[:3]}")
    deadline = time.monotonic() + 2.0
    while (children := _live_children()) and time.monotonic() < deadline:
        time.sleep(0.02)
    if children:
        problems.append(f"live child processes: {children}")
    leaked = default_pool().stats()["n_outstanding"] - outstanding - len(handed)
    if leaked > 0:
        problems.append(f"default_pool has {leaked} more buffer(s) outstanding")
    if _listening_sockets():
        problems.append("listening socket(s) left open")
    assert not problems, "; ".join(problems)


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
