"""One scheduler, three transports: the policy/transport equivalence tests.

The tentpole property of :mod:`repro.sched`: a Table-1 policy is a pure
state machine, so driving the *same* policy through the discrete-event
simulator (:class:`SimTransport`), the supervised process farm
(:class:`~repro.runtime.supervisor.TaskSupervisor`), and the loopback TCP network farm
(:class:`~repro.net.TcpTransport`) must produce identical
task-assignment sequences and identical modelled ray totals.  Plus the
scheduler edge cases — single worker, more workers than units,
zero-dirty FC frames, a worker lost mid-chain, a gating policy that
leaves lanes idle — exercised against the real transports.
"""

import numpy as np
import pytest

from repro.cluster import ThrashModel, ncsu_testbed
from repro.parallel.config import RenderFarmConfig
from repro.parallel.oracle import AnimationCostOracle
from repro.parallel.partition import default_block_layout, sequence_ranges
from repro.runtime import AnimationSpec, FarmOptions, LocalRenderFarm, RecoveryOptions
from repro.runtime.faults import FaultPlan
from repro.runtime.supervisor import SupervisorError, TaskSupervisor, assignment_echo_task
from repro.sched import (
    DemandDrivenPolicy,
    OracleCostModel,
    SchedulingPolicy,
    SimTransport,
    default_worker_timeout,
    make_policy,
)

SPU = 1e-4
NO_THRASH = ThrashModel(alpha=0.0)


@pytest.fixture(scope="module")
def machines():
    return ncsu_testbed()


@pytest.fixture(scope="module")
def cfg():
    return RenderFarmConfig()


def _run_sim(policy, oracle, regions, machines, label, single=False, **kw):
    transport = SimTransport(
        policy,
        oracle,
        machines,
        RenderFarmConfig(),
        regions=regions,
        label=label,
        sec_per_work_unit=SPU,
        thrash=NO_THRASH,
        single=single,
        **kw,
    )
    return transport.run()


def _run_process(policy, n_workers, **options):
    transport = TaskSupervisor(
        policy,
        assignment_echo_task,
        lambda a, lane: (a.seq, lane),
        FarmOptions(n_workers=n_workers, executor="serial", **options),
    )
    return transport.run()


def _run_tcp(policy, n_workers, **kw):
    """Drive a policy through the loopback network farm with the echo task
    (real sockets, real worker daemons; only the dispatch log matters)."""
    from repro.net import TcpTransport

    transport = TcpTransport(
        policy,
        "echo",
        lambda a, lane: (a.seq, lane),
        FarmOptions(n_workers=n_workers, **kw),
        recovery=RecoveryOptions(startup_timeout=120.0),
    )
    return transport.run()


def _build(strategy, oracle, n_workers):
    """(policy, regions) for one Table-1 strategy over the oracle's geometry."""
    n = oracle.n_frames
    if strategy in ("single", "single-fc"):
        return make_policy(strategy, n), None
    if strategy in ("sequence-division-fc", "sequence-division-nofc"):
        ranges = sequence_ranges(n, max(2, n_workers))
        return make_policy(strategy, n, sequence_ranges=ranges), None
    regions = default_block_layout(oracle.width, oracle.height)
    return (
        make_policy(strategy, n, n_regions=len(regions), frames_per_chunk=2),
        regions,
    )


# -- the acceptance property -----------------------------------------------------
FIVE_STRATEGIES = (
    "single-fc",
    "frame-division-nofc",
    "sequence-division-fc",
    "frame-division-fc",
    "hybrid-fc",
)


@pytest.mark.parametrize("strategy", FIVE_STRATEGIES)
def test_transports_produce_identical_assignment_sequences(
    strategy, tiny_oracle, machines, cfg
):
    """Same policy, all three transports: identical dispatch logs and ray
    totals.

    Demand-driven distribution is queue-ordered, so any worker count gives
    the same sequence; the chained policies are driven by one worker, where
    the dispatch order is completion-order independent.
    """
    n_workers = 3 if strategy == "frame-division-nofc" else 1
    p_sim, regions = _build(strategy, tiny_oracle, n_workers)
    p_proc, _ = _build(strategy, tiny_oracle, n_workers)
    p_tcp, _ = _build(strategy, tiny_oracle, n_workers)

    sim_out = _run_sim(
        p_sim,
        tiny_oracle,
        regions,
        machines[:n_workers],
        strategy,
        single=(strategy == "single-fc"),
    )
    proc_out = _run_process(p_proc, n_workers)
    tcp_out = _run_tcp(p_tcp, n_workers)

    assert p_sim.finished and p_proc.finished and p_tcp.finished
    assert [a.key() for a in p_sim.log] == [a.key() for a in p_proc.log]
    assert [a.key() for a in p_sim.log] == [a.key() for a in p_tcp.log]

    cost = OracleCostModel(tiny_oracle, cfg, regions)
    rays = cost.total_rays_of_log(p_sim.log)
    assert rays == cost.total_rays_of_log(p_proc.log)
    assert rays == cost.total_rays_of_log(p_tcp.log)
    # and the simulator's payload accounting agrees with the cost model
    assert sim_out.total_rays == rays
    assert len(proc_out.assignments) == len(p_proc.log)
    assert len(tcp_out.assignments) == len(p_tcp.log)
    assert tcp_out.net is not None and tcp_out.net.n_results == len(p_tcp.log)


def test_multiworker_chains_cover_every_frame_once(tiny_oracle, machines):
    """With several workers the interleaving (and steal points) may differ
    between transports, but each dispatches every frame exactly once."""
    n = tiny_oracle.n_frames
    for run in ("sim", "process"):
        policy = make_policy(
            "sequence-division-fc", n, sequence_ranges=sequence_ranges(n, 3)
        )
        if run == "sim":
            _run_sim(policy, tiny_oracle, None, machines[:3], "seq-fc")
        else:
            _run_process(policy, 3)
        assert policy.finished
        dispatched = sorted(f for a in policy.log for f in range(a.frame0, a.frame1))
        assert dispatched == list(range(n))


def test_object_space_equivalent_across_sim_and_tcp(tiny_oracle, machines, cfg):
    """The object-space policy is the same state machine under the
    discrete-event simulator (priced by :class:`ShardOracle`) and the real
    TCP ray-trading session: identical dispatch logs, identical modelled
    ray-exchange totals — and the TCP side actually rendered the frames
    bit-identically to the serial tracer."""
    from repro.render import RayTracer
    from repro.shard import ShardOracle, ShardProfile, render_frame_sharded
    from repro.shard.net import render_sharded_tcp

    spec = AnimationSpec.newton(n_frames=2, width=24, height=18)
    anim = spec.build()
    k = 3
    per_frame = []
    for f in range(2):
        scene = anim.scene_at(f)
        _, result, stats = render_frame_sharded(scene, shards=k)
        per_frame.append((stats, int(result.rays_per_pixel.sum())))
    profile = ShardProfile.from_stats(per_frame, anim.scene_at(0).camera.n_pixels)
    shard_oracle = ShardOracle(profile, n_shards=k, cfg=cfg)

    p_sim = make_policy("object-space", 2, n_regions=k)
    sim_out = _run_sim(
        p_sim, tiny_oracle, None, machines[:2], "object-space", cost_model=shard_oracle
    )

    session, tcp_out = render_sharded_tcp(spec, frames=2, shards=k, n_workers=2)

    assert p_sim.finished
    assert [a.key() for a in p_sim.log] == [a.key() for a in tcp_out.assignments]
    rays = shard_oracle.total_rays_of_log(p_sim.log)
    assert rays == shard_oracle.total_rays_of_log(tcp_out.assignments)
    assert rays > 0 and shard_oracle.ray_bytes_of_log(p_sim.log) > 0
    assert sim_out.total_rays == rays
    fb, _ = RayTracer(anim.scene_at(0)).render()
    assert np.array_equal(fb.data, session.frames[0].data)


# -- edge cases, against both transports ------------------------------------------
@pytest.fixture(params=["sim", "process"])
def run_policy(request, machines):
    """Drive a policy to completion on the transport named by the param."""

    def run(policy, oracle, regions=None, n_workers=2, **kw):
        if request.param == "sim":
            return _run_sim(
                policy, oracle, regions, machines[:n_workers], "edge", **kw
            )
        return _run_process(policy, n_workers, **kw)

    run.transport = request.param
    return run


def test_single_worker_drains_every_chain(run_policy, tiny_oracle):
    n = tiny_oracle.n_frames
    policy = make_policy(
        "sequence-division-fc", n, sequence_ranges=sequence_ranges(n, 3)
    )
    run_policy(policy, tiny_oracle, n_workers=1)
    assert policy.finished
    assert policy.n_steals == 0  # nobody to steal from
    assert sum(a.fresh for a in policy.log) == 3  # one fresh start per chain


def test_more_workers_than_units(run_policy, tiny_oracle):
    units = [(ri, 0, 1) for ri in range(2)]
    policy = DemandDrivenPolicy(units, use_coherence=False, units_per_frame=2)
    run_policy(policy, tiny_oracle, n_workers=3)
    assert policy.finished
    assert len(policy.log) == 2  # the surplus worker never gets an assignment


def _static_oracle(n_frames=4, width=4, height=3):
    """A perfectly static animation: every frame past the first has an
    empty recompute set, so coherent steps cost zero rays."""
    n_px = width * height
    full = np.full((n_frames, n_px), 2, dtype=np.int32)
    dirty = [np.array([], dtype=np.int64) for _ in range(n_frames)]
    return AnimationCostOracle(width, height, n_frames, full, dirty, grid_resolution=4)


def test_zero_dirty_frames_still_complete(run_policy, cfg):
    oracle = _static_oracle()
    n = oracle.n_frames
    policy = make_policy("sequence-division-fc", n, sequence_ranges=[(0, n)])
    run_policy(policy, oracle, n_workers=1)
    assert policy.finished
    cost = OracleCostModel(oracle, cfg)
    assert cost.total_rays_of_log(policy.log) == oracle.full_rays(0)
    assert all(cost.assignment_cost(a).rays == 0 for a in policy.log[1:])


@pytest.mark.usefixtures("no_leaks")
def test_worker_lost_mid_chain_sim(tiny_oracle, machines):
    """Simulator transport: a failed machine trips the deadline sweep and
    the policy requeues its chain fresh on the survivors."""
    n = tiny_oracle.n_frames
    policy = make_policy(
        "sequence-division-fc", n, sequence_ranges=sequence_ranges(n, 2)
    )
    timeout = default_worker_timeout(
        tiny_oracle, machines[:2], RenderFarmConfig(), SPU, NO_THRASH
    )
    out = _run_sim(
        policy,
        tiny_oracle,
        None,
        machines[:2],
        "lost",
        worker_timeout=timeout,
        # machines[0] also hosts the master task; fail the other machine
        failures=[(machines[1].name, 0.01)],
    )
    assert policy.finished
    assert policy.n_reassigned >= 1
    assert len(out.frame_completion_times) == n


@pytest.mark.usefixtures("no_leaks")
def test_worker_fault_mid_chain_process(tiny_oracle):
    """Process transport: a faulting dispatch loses its lane, as a failed
    machine does in the simulator — the policy requeues the chain fresh
    for another lane (``n_reassigned``), one taxonomy on every transport."""
    n = tiny_oracle.n_frames
    policy = make_policy(
        "sequence-division-fc", n, sequence_ranges=sequence_ranges(n, 2)
    )
    plan = FaultPlan([FaultPlan.raising(1, attempts=(0,))])
    out = _run_process(policy, 2, fault_plan=plan, max_attempts=3)
    assert policy.finished
    assert out.supervisor.n_retries >= 1
    assert policy.n_reassigned >= 1


# -- idle-lane starvation / stall guards (shared by process and tcp) --------------
class GatedPolicy(SchedulingPolicy):
    """Releases one unit at a time: unit k+1 only after unit k's result.

    With several lanes, all but one idle-decline for the whole run — a
    transport must keep re-asking idle lanes after each completion (no
    starvation) while never misreading those declines as a stall, because
    work *is* in flight elsewhere.
    """

    def __init__(self, n_units: int) -> None:
        super().__init__()
        self.total_units = n_units
        self._n = n_units
        self._next = 0
        self._gate_open = True

    def next_assignment(self, worker):
        if not self._gate_open or self._next >= self._n:
            return None
        self._gate_open = False
        a = self._emit(worker, self._next, 0, 1, fresh=True)
        self._next += 1
        return a

    def on_result(self, worker, assignment) -> None:
        super().on_result(worker, assignment)
        self._gate_open = True

    def on_worker_lost(self, worker):
        a = self._inflight.pop(worker, None)
        if a is not None:
            self._next = a.region_index
            self._gate_open = True
        return a


class StuckPolicy(SchedulingPolicy):
    """Claims a unit remains but never dispatches anything: a buggy policy
    the transports must turn into a loud error, not an idle-forever hang."""

    def __init__(self) -> None:
        super().__init__()
        self.total_units = 1

    def next_assignment(self, worker):
        return None

    def on_worker_lost(self, worker):
        return None


@pytest.mark.parametrize("run", [_run_process, _run_tcp], ids=["process", "tcp"])
def test_idle_lanes_while_policy_gates_do_not_deadlock(run):
    policy = GatedPolicy(5)
    out = run(policy, 3)
    assert policy.finished
    assert len(out.results) == 5
    assert len(policy.log) == 5


def _run_sim_on(worker_timeout=None):
    """The simulator as a ``run(policy, n_workers)`` transport (with or
    without a worker deadline)."""

    def run(policy, n_workers):
        return _run_sim(
            policy, _static_oracle(), None, ncsu_testbed()[:n_workers], "stuck",
            worker_timeout=worker_timeout,
        )

    return run


@pytest.mark.parametrize(
    "run",
    [_run_process, _run_tcp, _run_sim_on(), _run_sim_on(worker_timeout=5.0)],
    ids=["process", "tcp", "sim", "sim-deadline"],
)
def test_stalled_policy_raises_instead_of_hanging(run):
    # Every transport is a shell of one master core, which sees nothing in
    # flight and every lane declined: one loud stall error, never a hang
    # (nor, in the simulator, a drained event queue or a "dead" worker).
    with pytest.raises(SupervisorError, match="master stalled"):
        run(StuckPolicy(), 2)


# -- the real farm under dynamic schedules ----------------------------------------
def test_farm_dynamic_schedules_bit_identical():
    spec = AnimationSpec.newton(n_frames=3, width=24, height=18)
    ref = LocalRenderFarm(spec, executor="serial", grid_resolution=12).render_reference()
    for schedule in ("demand", "adaptive"):
        farm = LocalRenderFarm(
            spec, n_workers=2, executor="serial", schedule=schedule, grid_resolution=12
        )
        out = farm.render()
        assert out.mode == schedule
        assert np.array_equal(out.frames, ref.frames)


def _capture_policies(monkeypatch) -> list:
    """Every policy a farm builds from here on, appended as it is built."""
    policies = []
    build = LocalRenderFarm._policy

    def capture(self, units, regions):
        policies.append(build(self, units, regions))
        return policies[-1]

    monkeypatch.setattr(LocalRenderFarm, "_policy", capture)
    return policies


def test_demand_is_the_static_hybrid_unit_list(monkeypatch):
    """``schedule="demand"`` is a spelling of ``schedule="static"`` for every
    ``mode`` (``hybrid`` among them): same dispatch log, pixels and rays."""
    policies = _capture_policies(monkeypatch)
    spec = AnimationSpec.newton(n_frames=3, width=24, height=18)
    kw = dict(n_workers=2, executor="serial", grid_resolution=12, frames_per_chunk=2)
    # frame: 12 blocks x the whole shot; sequence: 2 ranges; hybrid: 12 x 2 chunks
    for mode, n_units in (("frame", 12), ("sequence", 2), ("hybrid", 24)):
        policies.clear()
        static = LocalRenderFarm(spec, mode=mode, schedule="static", **kw).render()
        demand = LocalRenderFarm(spec, mode=mode, schedule="demand", **kw).render()
        log_static, log_demand = ([a.key() for a in p.log] for p in policies)
        assert log_static == log_demand and len(log_static) == n_units, mode
        assert (static.mode, demand.mode) == (mode, "demand")
        assert np.array_equal(static.frames, demand.frames)
        assert np.array_equal(static.stats.counts, demand.stats.counts)


def test_demand_frame_division_is_the_serial_render(monkeypatch):
    """The paper's frame division: on the default ``mode`` a demand farm
    hands out one unit per block over the whole shot (the chains
    ``frame-division-fc`` starts from), so it traces exactly the rays of
    the serial coherent render and composites the same frames."""
    from repro.api import render

    policies = _capture_policies(monkeypatch)
    spec = AnimationSpec.newton(n_frames=4, width=48, height=36)
    farm = LocalRenderFarm(
        spec, schedule="demand", n_workers=2, executor="serial", grid_resolution=12
    ).render()
    chains = make_policy("frame-division-fc", 4, n_regions=12)._supply
    log = [a.key()[1:4] for a in policies[0].log]
    assert log == [(c.region_index, c.next_frame, c.end_frame) for c in chains]
    assert log == [(ri, 0, 4) for ri in range(12)]
    serial = render(workload=spec, engine="animation", grid_resolution=12)
    assert farm.stats.total == serial.stats.total
    assert np.array_equal(farm.stats.counts, serial.stats.counts)
    assert np.array_equal(farm.frames, serial.frames)


def test_static_run_traces_one_flight_per_unit():
    """The default schedule shows up in the trace like any other: a flight
    span per unit (what ``repro top`` lists as in flight), no orphans."""
    from repro.obs import find_orphan_spans
    from repro.telemetry import InMemorySink, Telemetry, validate_events

    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    spec = AnimationSpec.newton(n_frames=3, width=24, height=18)
    out = LocalRenderFarm(
        spec, n_workers=2, executor="thread", grid_resolution=12, telemetry=tel
    ).render()
    tel.close()
    validate_events(sink.events)
    spans = [r for r in sink.events if r["type"] == "span"]
    flights = [r for r in spans if r["name"] == "obs.flight"]
    tasks = [r for r in spans if r["name"] == "task"]
    assert len(flights) == len(tasks) == out.n_tasks == 12
    assert {t["parent"] for t in tasks} == {f["span"] for f in flights}
    assert {t["attrs"]["mode"] for t in tasks} == {"frame"}
    assert find_orphan_spans(sink.events) == []


def test_dynamic_schedule_rejects_spooling(tmp_path):
    spec = AnimationSpec.newton(n_frames=2, width=16, height=12)
    farm = LocalRenderFarm(spec, executor="serial", schedule="adaptive")
    with pytest.raises(ValueError, match="adaptive"):
        farm.render(run_dir=tmp_path)
