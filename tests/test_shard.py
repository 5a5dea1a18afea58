"""Object-space sharding: partitioner, ray-batch codec, bit-exactness
vs the serial tracer, policy mechanics, and worker-loss replay.

The subsystem's correctness oracle is determinism: a sharded composite
must be bit-identical to ``RayTracer(scene).render()`` — including when
a shard owner dies mid-run and the master replays its in-flight ray
batches to the reassigned owner (DESIGN §16).
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.net import protocol as wire
from repro.obs.live import render_status
from repro.render import RayTracer
from repro.runtime import AnimationSpec, FaultPlan
from repro.scene import split_coherent_sequences
from repro.scenes import ease_in_out_cubic, newton_animation, orbit_animation
from repro.scenes.stress import random_spheres_scene
from repro.sched import ObjectSpacePolicy, make_policy
from repro.shard import (
    LocalShardFarm,
    ShardOracle,
    ShardProfile,
    partition_scene,
    render_frame_sharded,
)
from repro.telemetry import SCHEMA_VERSION, InMemorySink, RunFold, Telemetry, validate_events


@pytest.fixture(scope="module")
def newton_scene_small():
    return newton_animation(n_frames=1, width=48, height=36).scene_at(0)


@pytest.fixture(scope="module")
def stress_scene_small():
    return random_spheres_scene(n_spheres=20, seed=3, width=48, height=36)


# -- partitioner -----------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_partition_balanced_and_total(stress_scene_small, k):
    smap = partition_scene(stress_scene_small, k)
    n = len(stress_scene_small.objects)
    assert smap.n_shards == k
    assert smap.n_objects == n
    # Totality: every object owned by exactly one shard, members ascending.
    owned = sorted(i for mem in smap.members for i in mem)
    assert owned == list(range(n))
    for s, mem in enumerate(smap.members):
        assert list(mem) == sorted(mem)
        assert all(smap.owner_of[i] == s for i in mem)
    # Spatial-median balance: object counts within one of each other.
    sizes = [len(mem) for mem in smap.members]
    assert max(sizes) - min(sizes) <= 1


def test_partition_clamps_to_object_count(newton_scene_small):
    smap = partition_scene(newton_scene_small, 100)
    assert smap.n_shards == len(newton_scene_small.objects)
    assert all(len(mem) == 1 for mem in smap.members)


def test_partition_deterministic(stress_scene_small):
    a = partition_scene(stress_scene_small, 5)
    b = partition_scene(stress_scene_small, 5)
    assert a.members == b.members
    assert np.array_equal(a.owner_of, b.owner_of)
    assert np.array_equal(a.domain_lo, b.domain_lo)
    assert np.array_equal(a.domain_hi, b.domain_hi)


def test_route_is_conservative(newton_scene_small):
    """Every object a ray can hit must belong to a routed shard."""
    scene = newton_scene_small
    smap = partition_scene(scene, 4)
    batch = scene.camera.rays_for_pixels(scene.camera.pixel_grid())
    mask = smap.route(batch.origins, batch.dirs)
    for i, obj in enumerate(scene.objects):
        t, _ = obj.intersect(batch.origins, batch.dirs)
        hit = np.isfinite(t) & (t > 1e-6)
        assert mask[hit, smap.owner_of[i]].all()


# -- ray-batch wire codec --------------------------------------------------------


@pytest.mark.parametrize("compress", [False, True])
def test_ray_batch_payload_roundtrip(compress):
    rng = np.random.default_rng(7)
    payload = {
        "rid": 42,
        "shard": 3,
        "op": "nearest",
        "origins": rng.normal(size=(257, 3)),
        "dirs": rng.normal(size=(257, 3)),
        "t_max": rng.exponential(size=257),
        "homes": rng.integers(-1, 4, size=257, dtype=np.int64),
        "spec": {"factory": "repro.scenes.newton:newton_animation", "kwargs": {"n_frames": 2}},
    }
    data = wire.encode(payload, compress_arrays=compress, compress_min_bytes=64)
    out = wire.decode(data)
    assert out["rid"] == 42 and out["op"] == "nearest"
    assert out["spec"]["kwargs"] == {"n_frames": 2}
    for key in ("origins", "dirs", "t_max", "homes"):
        assert out[key].dtype == payload[key].dtype
        assert np.array_equal(out[key], payload[key])


# -- bit-exactness vs the serial tracer ------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5])
def test_sharded_newton_bit_identical(newton_scene_small, k):
    serial, result = RayTracer(newton_scene_small).render()
    fb, sres, stats = render_frame_sharded(newton_scene_small, shards=k)
    assert np.array_equal(serial.data, fb.data)
    assert np.array_equal(result.colors, sres.colors)
    # Conservation: every served ray has a serving shard; locals are a subset.
    assert stats.rays_recv.sum() >= stats.rays_local.sum()
    assert stats.n_requests.sum() > 0


@pytest.mark.parametrize("k", [2, 4, 7])
def test_sharded_stress_bit_identical(stress_scene_small, k):
    serial, _ = RayTracer(stress_scene_small).render()
    fb, _, _ = render_frame_sharded(stress_scene_small, shards=k)
    assert np.array_equal(serial.data, fb.data)


def test_kernel_constant_reaches_the_sharded_trace(newton_scene_small, monkeypatch):
    """One kernel: a tracer constant changed in ``render.raytracer`` changes
    the serial and the sharded render alike (a second loop holding its own
    copy of the constant would keep the old ray tree)."""
    default, _ = RayTracer(newton_scene_small).render()
    # (``repro.render`` the function shadows the subpackage on ``repro``.)
    monkeypatch.setattr(importlib.import_module("repro.render.raytracer"), "_ADC_BAILOUT", 0.2)
    serial, result = RayTracer(newton_scene_small).render()
    fb, sres, _ = render_frame_sharded(newton_scene_small, shards=3)
    assert not np.array_equal(default.data, serial.data)  # the cut really moved
    assert np.array_equal(serial.data, fb.data)
    assert np.array_equal(result.stats.counts, sres.stats.counts)
    assert np.array_equal(result.rays_per_pixel, sres.rays_per_pixel)


def test_local_owner_kill_drill_bit_identical(stress_scene_small):
    """Replacing a shard owner mid-trace must not change a single bit —
    replies are pure functions of (scene, shard map, request)."""
    scene = stress_scene_small
    smap = partition_scene(scene, 4)
    farm = LocalShardFarm(scene, smap, kill_shard=1, kill_after_requests=5)
    serial, _ = RayTracer(scene).render()
    fb, _, _ = render_frame_sharded(scene, smap, farm=farm)
    assert farm.n_restarts == 1
    assert np.array_equal(serial.data, fb.data)


# -- the orbit workload ----------------------------------------------------------


def test_ease_in_out_cubic_shape():
    assert ease_in_out_cubic(0.0) == 0.0
    assert ease_in_out_cubic(0.5) == 0.5
    assert ease_in_out_cubic(1.0) == 1.0
    assert ease_in_out_cubic(-1.0) == 0.0 and ease_in_out_cubic(2.0) == 1.0
    samples = [ease_in_out_cubic(t) for t in np.linspace(0, 1, 33)]
    assert all(b >= a for a, b in zip(samples, samples[1:]))
    # Ease-in: slower than linear early, faster mid-curve.
    assert ease_in_out_cubic(0.25) < 0.25
    assert ease_in_out_cubic(0.75) > 0.75


def test_orbit_moving_camera_splits_per_frame():
    anim = orbit_animation(n_frames=5, width=32, height=24)
    assert anim.n_frames == 5
    assert split_coherent_sequences(anim) == [(f, f + 1) for f in range(5)]
    # The eased azimuth must cover the full revolution, endpoints exact.
    cams = [anim.scene_at(f).camera for f in range(5)]
    assert np.allclose(cams[0].position, cams[-1].position)
    assert not np.allclose(cams[0].position, cams[2].position)


def test_orbit_sharded_bit_identical():
    scene = orbit_animation(n_frames=3, width=40, height=30).scene_at(1)
    serial, _ = RayTracer(scene).render()
    fb, _, _ = render_frame_sharded(scene, shards=4)
    assert np.array_equal(serial.data, fb.data)


# -- the scheduling policy -------------------------------------------------------


def test_object_space_policy_affinity_and_handoff():
    p = make_policy("object-space", 2, n_regions=3, frames_per_chunk=1)
    assert isinstance(p, ObjectSpacePolicy)
    assert p.total_units == 6 and p.units_per_frame == 3
    p.allow_multi = True
    a0 = p.next_assignment("w0")
    a1 = p.next_assignment("w1")
    assert (a0.region_index, a1.region_index) == (0, 1)
    assert a0.fresh and a1.fresh
    assert p.shard_owner == {0: "w0", 1: "w1"}
    # w0's next pull prefers its own shard's later chunk over shard 2.
    p.on_result("w0", a0)
    a2 = p.next_assignment("w0")
    assert a2.region_index == 0 and a2.frame0 == 1
    assert not a2.fresh  # sticky ownership: no rebuild
    # Affinity beats the unbound FIFO head: w1 continues its own shard,
    # then picks up the never-bound shard 2 fresh.
    p.on_result("w1", a1)
    a3 = p.next_assignment("w1")
    assert a3.region_index == 1 and not a3.fresh
    p.on_result("w1", a3)
    a4 = p.next_assignment("w1")
    assert a4.region_index == 2 and a4.fresh
    assert p.n_steals == 0


def test_object_space_policy_multi_guard():
    p = ObjectSpacePolicy(2, 2, frames_per_chunk=1)
    p.next_assignment("w0")
    with pytest.raises(RuntimeError):
        p.next_assignment("w0")  # allow_multi defaults off


def test_object_space_policy_loss_requeues_front_and_unbinds():
    p = ObjectSpacePolicy(3, 1)
    p.allow_multi = True
    a0 = p.next_assignment("w0")
    a1 = p.next_assignment("w0")
    assert {a0.region_index, a1.region_index} == {0, 1}
    p.next_assignment("w1")
    p.on_worker_lost("w0")
    assert p.n_reassigned == 2
    assert 0 not in p.shard_owner and 1 not in p.shard_owner
    assert p.shard_owner == {2: "w1"}
    # Requeued units come back at the front, in original seq order, and
    # rebinding them to the survivor is a counted ownership steal.
    b0 = p.next_assignment("w1")
    b1 = p.next_assignment("w1")
    assert (b0.region_index, b1.region_index) == (0, 1)
    assert b0.fresh and b1.fresh
    assert p.n_steals == 0  # owner entries were cleared, not stolen live


# -- the cost oracle -------------------------------------------------------------


def test_shard_oracle_prices_and_scales(newton_scene_small):
    _, result, stats = render_frame_sharded(newton_scene_small, shards=3)
    rays = int(result.rays_per_pixel.sum())
    profile = ShardProfile.from_stats([(stats, rays)], newton_scene_small.camera.n_pixels)
    assert profile.fanout() >= 1.0
    oracle = ShardOracle(profile, n_shards=3)
    big = ShardOracle(profile, n_shards=300)
    assert 1.0 <= big.fanout <= 300
    assert big.fanout >= oracle.fanout  # fan-out grows as domains shrink
    p = ObjectSpacePolicy(3, 1)
    p.allow_multi = True
    log = [p.next_assignment("w0") for _ in range(3)]
    assert oracle.total_rays_of_log(log) > 0
    assert oracle.ray_bytes_of_log(log) > 0
    cost = oracle.assignment_cost(log[0])
    assert cost.reply_bytes > 0 and cost.rays > 0


# -- telemetry + live status -----------------------------------------------------


def _event(name, **attrs):
    return {"v": SCHEMA_VERSION, "type": "event", "name": name, "t": 0.0, "attrs": attrs}


def test_shard_events_validate_and_fold_into_ledger():
    sink = InMemorySink()
    tel = Telemetry(sinks=[sink])
    tel.event("shard.rays", worker="w0", shard=0, frame=0, n_local=90, n_forwarded=10)
    tel.event("shard.xfer", worker="w0", shard=0, frame=0, n_rays=100, nbytes=4096)
    validate_events(sink.events)

    led = RunFold(clock=lambda: 0.0)
    led.emit(_event("shard.rays", worker="w0", shard=0, frame=0, n_local=90, n_forwarded=10))
    led.emit(_event("shard.rays", worker="w1", shard=1, frame=0, n_local=70, n_forwarded=30))
    led.emit(_event("shard.xfer", worker="w0", shard=0, frame=0, n_rays=100, nbytes=4096))
    snap = led.snapshot()
    assert snap["n_shards"] == 2
    assert snap["shard_bytes"] == 4096
    rows = {w["worker"]: w for w in snap["workers"]}
    assert rows["w0"]["shards"] == [0]
    assert rows["w0"]["rays_local"] == 90
    assert rows["w0"]["rays_forwarded"] == 10
    assert rows["w0"]["rays_received"] == 100
    view = render_status(snap)
    assert "object-space: 2 shards" in view
    assert "shards [0]" in view


# -- the TCP farm ----------------------------------------------------------------


def _render_serial(spec, n_frames):
    anim = spec.build()
    out = []
    for f in range(n_frames):
        fb, _ = RayTracer(anim.scene_at(f)).render()
        out.append(fb)
    return out


def test_tcp_sharded_bit_identical():
    from repro.shard.net import render_sharded_tcp

    spec = AnimationSpec.newton(n_frames=2, width=72, height=54)
    session, outcome = render_sharded_tcp(spec, frames=2, shards=3, n_workers=2)
    assert session.done and len(session.frames) == 2
    assert outcome.net.n_losses == 0
    for serial, sharded in zip(_render_serial(spec, 2), session.frames):
        assert np.array_equal(serial.data, sharded.data)


def test_tcp_owner_kill_replays_bit_identical():
    """Kill a shard owner mid-run: the ledger replays its in-flight ray
    batches to the reassigned owner and the composite stays bit-identical."""
    from repro.shard.net import render_sharded_tcp

    spec = AnimationSpec.newton(n_frames=2, width=72, height=54)
    sink = InMemorySink()
    session, outcome = render_sharded_tcp(
        spec,
        frames=2,
        shards=3,
        n_workers=2,
        fault_plan=FaultPlan([FaultPlan.kill_worker(0, 6, "rays")]),
        telemetry=Telemetry(sinks=[sink]),
    )
    assert outcome.net.n_losses >= 1
    assert session.n_replays >= 1
    # The dispatch log exceeds the unit count (one per shard) by the
    # units reassigned after the loss.
    assert len(outcome.assignments) > 3
    for serial, sharded in zip(_render_serial(spec, 2), session.frames):
        assert np.array_equal(serial.data, sharded.data)
    validate_events(sink.events)
    names = {r.get("name") for r in sink.events}
    assert "shard.rays" in names and "shard.xfer" in names
