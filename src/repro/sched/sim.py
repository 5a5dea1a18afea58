"""Drive a scheduling policy over the discrete-event VirtualPVM cluster.

:func:`simulate` is the simulator's entry point: it looks a strategy name
up in :data:`~repro.sched.core.STRATEGIES`, builds the policy and the
geometry the row asks for (block regions, or speed-weighted frame ranges)
and runs it on a :class:`SimTransport`.  One master drives any
:class:`~repro.sched.core.SchedulingPolicy` — priming every worker,
pricing each assignment through the
:class:`~repro.sched.cost.OracleCostModel`, completing frames when all
their (region, frame) units arrive, and, when given a ``worker_timeout``,
sweeping worker deadlines so a machine failure becomes
``policy.on_worker_lost`` and the lost chain restarts fresh on a survivor
(the ``-ft`` strategies).  Around it sit the generic slave program, the
telemetry bridge that replays a simulated run onto the pinned event
schema, and the outcome assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..cluster import Compute, Machine, Recv, Send, ThrashModel, VirtualPVM, WriteFile
from ..imageio import targa_nbytes
from ..telemetry import NULL as NULL_TELEMETRY
from ..telemetry import VirtualClock
from ..parallel.config import RenderFarmConfig
from ..parallel.oracle import AnimationCostOracle
from ..parallel.outcome import SimulationOutcome
from ..parallel.partition import PixelRegion, default_block_layout, sequence_ranges
from ..runtime.options import TIMEOUT_FACTOR, TIMEOUT_MARGIN
from .core import STRATEGIES, SchedulingPolicy, make_policy
from .cost import AssignmentCost, OracleCostModel

__all__ = [
    "SIM_STRATEGIES",
    "SimTelemetry",
    "RunAccounting",
    "worker_program",
    "outcome_from",
    "SimTransport",
    "default_worker_timeout",
    "simulate",
]

#: The names :func:`simulate` (and ``repro simulate --strategy``) accepts.
SIM_STRATEGIES = tuple(name for name, row in STRATEGIES.items() if row.label is not None)


class SimTelemetry:
    """Bridges a strategy replay onto the pinned telemetry schema.

    Spans and events carry *virtual* timestamps (the telemetry clock is
    rebound to ``pvm.sim.now`` once the farm exists), but their names and
    attribute keys are exactly those of a real farm run — the property the
    schema-equality acceptance test pins down.  Masters stamp dispatch
    metadata into the task payload (``_t0``/``_rays``/...): payload contents
    don't affect the modeled message size (``reply_bytes`` is explicit), and
    the echo-back of the payload is what lets the master close the span.
    """

    def __init__(self, telemetry, oracle: AnimationCostOracle, mode: str):
        self.tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.enabled = self.tel.enabled
        self.oracle = oracle
        self.mode = mode
        self.names: dict[int, str] = {}  # worker tid -> machine name
        self.tasks_of: dict[str, int] = {}
        self.frame_rays: dict[int, int] = {}
        self.frame_computed: dict[int, int] = {}
        self.kind_totals = np.zeros(4, dtype=np.int64)
        self.rays_total = 0
        self.computed_pixels = 0
        self.copied_pixels = 0
        self.n_tasks = 0

    def bind(self, pvm: VirtualPVM, machines: list[Machine], worker_tids: list[int]) -> None:
        if not self.enabled:
            return
        self.tel.use_clock(VirtualClock(lambda: pvm.sim.now))
        self.names = {tid: m.name for tid, m in zip(worker_tids, machines)}
        self.tel.event(
            "run.start",
            engine="sim",
            workload="oracle",
            n_frames=self.oracle.n_frames,
            width=self.oracle.width,
            height=self.oracle.height,
            n_workers=len(machines) if machines else 1,
            mode=self.mode,
        )

    def on_dispatch_cost(
        self, payload: dict, cost: AssignmentCost, region_px: int, now: float
    ) -> None:
        """Accumulate each frame-step of the assignment, stamp its totals."""
        if not self.enabled:
            return
        for s in cost.per_frame:
            self.frame_rays[s.frame] = self.frame_rays.get(s.frame, 0) + s.rays
            self.frame_computed[s.frame] = self.frame_computed.get(s.frame, 0) + s.n_computed
        payload["_t0"] = now
        payload["_region_px"] = int(region_px)
        payload["_rays"] = int(cost.rays)
        payload["_n_computed"] = int(cost.n_computed)

    def on_done(self, src: int, payload: dict, now: float) -> None:
        if not self.enabled:
            return
        worker = self.names.get(src, f"tid{src}")
        self.n_tasks += 1
        self.tasks_of[worker] = self.tasks_of.get(worker, 0) + 1
        t0 = payload.get("_t0", now)
        frame0 = int(payload["frame"])
        self.tel.emit_span(
            "task",
            t0,
            now - t0,
            worker=worker,
            mode=self.mode,
            frame0=frame0,
            frame1=int(payload.get("_frame1", frame0 + 1)),
            region=payload.get("_region_px", 0),
            rays=payload.get("_rays", 0),
            n_computed=payload.get("_n_computed", 0),
            attempt=0,
        )

    def frame_done(self, frame: int) -> None:
        if not self.enabled:
            return
        rays = self.frame_rays.get(frame, 0)
        computed = self.frame_computed.get(frame, 0)
        copied = max(0, self.oracle.n_pixels - computed)
        self.computed_pixels += computed
        self.copied_pixels += copied
        self.rays_total += rays
        kinds = self.oracle.kind_counts(frame, rays)
        if kinds is None:  # pre-kind-counts oracle: totals only
            kinds = np.zeros(4, dtype=np.int64)
        self.kind_totals += kinds
        self.tel.event(
            "frame",
            frame=frame,
            n_computed=computed,
            n_copied=copied,
            rays_camera=int(kinds[0]),
            rays_reflected=int(kinds[1]),
            rays_refracted=int(kinds[2]),
            rays_shadow=int(kinds[3]),
            rays_total=int(rays),
        )

    def recovery(self, kind: str, task: int, duration: float, worker: str = "?") -> None:
        if not self.enabled:
            return
        self.tel.event(
            "recovery", kind=kind, task=int(task), attempt=0, duration=duration, worker=worker
        )
        self.tel.counter("recovery.events", 1)

    def finish(self, pvm: VirtualPVM, total_time: float) -> None:
        if not self.enabled:
            return
        busy_by_machine = pvm.cpu_busy_seconds()
        for worker in sorted(self.tasks_of):
            busy = busy_by_machine.get(worker, 0.0)
            self.tel.event(
                "worker",
                worker=worker,
                busy=busy,
                n_tasks=self.tasks_of[worker],
                utilization=(busy / total_time) if total_time > 0 else 0.0,
            )
        self.tel.event(
            "run.end",
            wall_time=total_time,
            computed_pixels=self.computed_pixels,
            copied_pixels=self.copied_pixels,
            n_tasks=self.n_tasks,
            n_workers=len(self.names) if self.names else 1,
            rays_camera=int(self.kind_totals[0]),
            rays_reflected=int(self.kind_totals[1]),
            rays_refracted=int(self.kind_totals[2]),
            rays_shadow=int(self.kind_totals[3]),
            rays_total=int(self.rays_total),
        )


@dataclass
class RunAccounting:
    """Mutable counters the master updates while the simulation runs."""

    total_rays: int = 0
    total_units: float = 0.0
    n_chain_starts: int = 0
    n_steals: int = 0
    n_reassigned: int = 0
    frame_done_at: dict[int, float] = field(default_factory=dict)


def worker_program(master_tid: int) -> Iterator:
    """The generic slave: receive a task, compute it, return the result.

    The payload carries precomputed ``units`` (from the oracle) and the
    modelled working-set size; the worker is strategy-agnostic, exactly like
    the paper's slaves ("the slaves themselves do not need to communicate
    with each other").
    """
    while True:
        msg = yield Recv()
        if msg.tag == "stop":
            return
        p = msg.payload
        yield Compute(units=p["units"], working_set_mb=p["ws_mb"])
        yield Send(master_tid, p["reply_bytes"], payload=p, tag="done")


def outcome_from(
    strategy: str,
    oracle: AnimationCostOracle,
    pvm: VirtualPVM,
    acct: RunAccounting,
    total_time: float,
    first_frame_time: float | None = None,
    sim_tel: SimTelemetry | None = None,
) -> SimulationOutcome:
    if sim_tel is not None:
        sim_tel.finish(pvm, total_time)
    timeline = None
    if pvm.tracing and pvm.events:
        from ..cluster import render_timeline

        timeline = render_timeline(pvm)
    return SimulationOutcome(
        strategy=strategy,
        n_frames=oracle.n_frames,
        total_time=total_time,
        first_frame_time=first_frame_time,
        frame_completion_times=dict(acct.frame_done_at),
        total_rays=acct.total_rays,
        total_units=acct.total_units,
        machine_busy_seconds=pvm.cpu_busy_seconds(),
        ethernet_busy_seconds=pvm.ethernet.busy_seconds,
        n_messages=pvm.ethernet.n_messages,
        bytes_on_wire=pvm.ethernet.bytes_carried,
        n_chain_starts=acct.n_chain_starts,
        n_steals=acct.n_steals,
        n_reassigned=acct.n_reassigned,
        timeline=timeline,
    )


def _effective_rates(
    machines: list[Machine], cfg: RenderFarmConfig, region_pixels: int,
    thrash: ThrashModel | None,
) -> list[float]:
    """Each machine's speed under the memory pressure of a coherence chain
    over ``region_pixels`` pixels (raw speed / thrash slowdown)."""
    th = thrash if thrash is not None else ThrashModel(alpha=0.0)
    ws = cfg.fc_working_set_mb(region_pixels)
    return [m.speed / th.slowdown(ws, m.memory_mb) for m in machines]


def default_worker_timeout(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig,
    sec_per_work_unit: float,
    thrash: ThrashModel | None,
    regions: list[PixelRegion] | None = None,
) -> float:
    """A deadline safely above the slowest legitimate task.

    Worst case: a fresh chain start of the most expensive block (or the
    whole frame when ``regions`` is None — sequence division) on the
    slowest (and most memory-pressured) machine, under the real farm's
    deadline rule (:func:`repro.runtime.options.deadline`), which applies
    the same two constants to observed task durations.
    """
    region_list = [(None, oracle.n_pixels)] if regions is None else [
        (r.pixels, r.n_pixels) for r in regions
    ]
    worst_units = max(
        cfg.task_units(oracle.full_rays(f, pixels), True, chain_start=True, region_pixels=n)
        for pixels, n in region_list
        for f in range(oracle.n_frames)
    )
    worst_rate = min(
        _effective_rates(machines, cfg, max(n for _p, n in region_list), thrash)
    )
    return TIMEOUT_FACTOR * worst_units * sec_per_work_unit / worst_rate + TIMEOUT_MARGIN


class SimTransport:
    """Runs one policy over a VirtualPVM farm and returns a SimulationOutcome.

    ``single=True`` replays the policy as one renderer process with no
    message passing (Table 1's single-processor columns); otherwise the
    master primes every worker, reprices each assignment at dispatch time
    and writes frames as their last (region, frame) unit completes.

    ``worker_timeout`` switches the master's blocking ``Recv`` to a
    deadline sweep: a worker whose assignment outlives the deadline is
    declared lost, the policy requeues its chain fresh (its coherence
    state died with the machine — the paper's chain-restart cost, paid
    only on failure), and idle live workers are re-fed.  A late answer
    from a worker that was merely slow is dropped, so every (region,
    frame) unit is accepted exactly once as long as one worker survives.
    ``failures`` is a list of ``(machine_name, virtual_time)`` crashes to
    inject.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        oracle: AnimationCostOracle,
        machines: list[Machine],
        cfg: RenderFarmConfig | None = None,
        *,
        regions: list[PixelRegion] | None = None,
        cost_model: OracleCostModel | None = None,
        label: str = "sched",
        sec_per_work_unit: float = 1e-4,
        thrash: ThrashModel | None = None,
        trace: bool = False,
        telemetry=None,
        single: bool = False,
        worker_timeout: float | None = None,
        failures: list[tuple[str, float]] | None = None,
        **ethernet_kwargs,
    ) -> None:
        self.policy = policy
        self.oracle = oracle
        self.machines = machines
        self.cfg = cfg or RenderFarmConfig()
        self.cost = cost_model if cost_model is not None else OracleCostModel(oracle, self.cfg, regions)
        self.label = label
        self.sec_per_work_unit = sec_per_work_unit
        self.thrash = thrash
        self.trace = trace
        self.telemetry = telemetry
        self.single = single
        self.worker_timeout = worker_timeout
        self.failures = failures or []
        self.ethernet_kwargs = ethernet_kwargs
        self._frame_bytes = targa_nbytes(oracle.width, oracle.height)

    @classmethod
    def for_strategy(
        cls,
        strategy: str,
        oracle: AnimationCostOracle,
        machines: list[Machine],
        cfg: RenderFarmConfig | None = None,
        *,
        regions: list[PixelRegion] | None = None,
        frames_per_chunk: int = 10,
        failures: list[tuple[str, float]] | None = None,
        worker_timeout: float | None = None,
        sec_per_work_unit: float = 1e-4,
        thrash: ThrashModel | None = None,
        **transport_kwargs,
    ) -> "SimTransport":
        """The transport :func:`simulate` runs: policy, geometry and
        deadline as the strategy's :data:`~repro.sched.core.STRATEGIES`
        row prescribes."""
        row = STRATEGIES.get(strategy)
        if row is None or row.label is None:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {list(SIM_STRATEGIES)}"
            )
        if not row.deadline and (failures or worker_timeout is not None):
            ft = [name for name, r in STRATEGIES.items() if r.deadline]
            raise ValueError(
                f"strategy {strategy!r} runs without a worker deadline and cannot take "
                f"failures/worker_timeout; use one of {ft}"
            )
        cfg = cfg or RenderFarmConfig()
        ranges = None
        if row.single:
            machines, regions = machines[:1], None
        elif row.regions:
            if regions is None:
                regions = default_block_layout(oracle.width, oracle.height)
        else:
            # Sequence division: one contiguous frame range per machine,
            # sized by speed — the paper's "matching the computation of a
            # subproblem to the most appropriate processor".
            regions = None
            weights = [m.speed for m in machines]
            if row.effective_speed:
                weights = _effective_rates(machines, cfg, oracle.n_pixels, thrash)
            ranges = sequence_ranges(oracle.n_frames, len(machines), weights=weights)
        policy = make_policy(
            strategy,
            oracle.n_frames,
            n_regions=len(regions) if regions is not None else 1,
            sequence_ranges=ranges,
            frames_per_chunk=frames_per_chunk,
            min_steal_frames=cfg.min_steal_frames,
        )
        if row.deadline and worker_timeout is None:
            worker_timeout = default_worker_timeout(
                oracle, machines, cfg, sec_per_work_unit, thrash, regions
            )
        return cls(
            policy,
            oracle,
            machines,
            cfg,
            regions=regions,
            label=row.label,
            single=row.single,
            failures=failures,
            worker_timeout=worker_timeout,
            sec_per_work_unit=sec_per_work_unit,
            thrash=thrash,
            **transport_kwargs,
        )

    # -- shared dispatch plumbing -----------------------------------------
    def _build_payload(self, a, acct: RunAccounting, sim_tel: SimTelemetry, now: float) -> dict:
        cost = self.cost.assignment_cost(a)
        acct.total_rays += cost.rays
        acct.total_units += cost.units
        p = {
            "frame": a.frame0,
            "_frame1": a.frame1,
            "region": a.region_index,
            "units": cost.units,
            "ws_mb": cost.ws_mb,
            "reply_bytes": cost.reply_bytes,
            "_seq": a.seq,
        }
        sim_tel.on_dispatch_cost(p, cost, self.cost.region_size(a.region_index), now)
        return p

    def _sync_policy_counters(self, acct: RunAccounting) -> None:
        acct.n_chain_starts = self.policy.n_chain_starts
        acct.n_steals = self.policy.n_steals
        acct.n_reassigned = self.policy.n_reassigned

    def run(self) -> SimulationOutcome:
        if self.single:
            return self._run_single()
        return self._run_farm()

    # -- single processor (no messages) ------------------------------------
    def _run_single(self) -> SimulationOutcome:
        policy, cfg, oracle = self.policy, self.cfg, self.oracle
        machine = self.machines[0]
        pvm = VirtualPVM(
            [machine], sec_per_work_unit=self.sec_per_work_unit, thrash=self.thrash
        )
        acct = RunAccounting()
        sim_tel = SimTelemetry(self.telemetry, oracle, self.label)
        sim_tel.bind(pvm, [machine], [])
        sim_tel.names = {0: machine.name}  # the lone renderer is tid-less

        def renderer():
            while True:
                a = policy.next_assignment(0)
                if a is None:
                    break
                p = self._build_payload(a, acct, sim_tel, pvm.sim.now)
                yield Compute(units=p["units"], working_set_mb=p["ws_mb"])
                if cfg.write_frames:
                    for _f in range(a.frame0, a.frame1):
                        yield WriteFile(self._frame_bytes)
                for f in range(a.frame0, a.frame1):
                    acct.frame_done_at[f] = pvm.sim.now
                sim_tel.on_done(0, p, pvm.sim.now)
                policy.on_result(0, a)
                for f in range(a.frame0, a.frame1):
                    sim_tel.frame_done(f)

        pvm.spawn(renderer(), machine.name, name="renderer")
        end = pvm.run()
        self._sync_policy_counters(acct)
        return outcome_from(
            self.label, oracle, pvm, acct, end,
            first_frame_time=acct.frame_done_at.get(0), sim_tel=sim_tel,
        )

    # -- message-passing farm ----------------------------------------------
    def _run_farm(self) -> SimulationOutcome:
        machines = self.machines
        sim_tel = SimTelemetry(self.telemetry, self.oracle, self.label)
        pvm = VirtualPVM(
            machines, sec_per_work_unit=self.sec_per_work_unit, thrash=self.thrash,
            **self.ethernet_kwargs,
        )
        pvm.tracing = bool(self.trace)
        acct = RunAccounting()
        # Workers address the master through its (future) tid; tids are
        # assigned sequentially, so workers take 1..n and the master n+1.
        master_tid = len(machines) + 1
        worker_tids = [
            pvm.spawn(worker_program(master_tid), m.name, name=f"worker-{m.name}")
            for m in machines
        ]
        master = self._master(pvm, worker_tids, acct, sim_tel)
        if pvm.spawn(master, machines[0].name, name="master") != master_tid:
            raise RuntimeError("tid allocation changed; master address is stale")
        sim_tel.bind(pvm, machines, worker_tids)
        for machine_name, at in self.failures:
            pvm.fail_machine(machine_name, at)
        end = pvm.run()
        self._sync_policy_counters(acct)
        return outcome_from(self.label, self.oracle, pvm, acct, end, sim_tel=sim_tel)

    def _master(
        self, pvm: VirtualPVM, worker_tids: list[int], acct: RunAccounting,
        sim_tel: SimTelemetry,
    ) -> Iterator:
        policy, cfg = self.policy, self.cfg
        frames_done: dict[int, int] = {f: 0 for f in range(self.oracle.n_frames)}
        inflight: dict[int, object] = {}  # tid -> Assignment
        deadlines: dict[int, float] = {}
        stopped: set[int] = set()
        dead: set[int] = set()
        timeout = self.worker_timeout

        def dispatch(tid, a):
            inflight[tid] = a
            if timeout is not None:
                deadlines[tid] = pvm.sim.now + timeout
            return Send(tid, cfg.request_bytes, self._build_payload(
                a, acct, sim_tel, pvm.sim.now), tag="task")

        def accept(src) -> list[int]:
            """Record a result; return frames newly completed by it."""
            a = inflight.pop(src)
            deadlines.pop(src, None)
            fresh_frames = [
                f for f in range(a.frame0, a.frame1)
                if not policy.unit_completed(a.region_index, f)
            ]
            policy.on_result(src, a)
            done = []
            for f in fresh_frames:
                frames_done[f] += 1
                if frames_done[f] == policy.units_per_frame:
                    done.append(f)
            return done

        # -- prime every worker ----------------------------------------
        for tid in worker_tids:
            a = policy.next_assignment(tid)
            if a is None:
                if timeout is None:
                    stopped.add(tid)
                    yield Send(tid, cfg.msg_overhead_bytes, None, tag="stop")
            else:
                yield dispatch(tid, a)

        while not policy.finished:
            msg = yield Recv(
                tag="done", timeout=None if timeout is None else timeout / 2.0
            )
            now = pvm.sim.now
            if msg is not None and msg.src not in dead:
                sim_tel.on_done(msg.src, msg.payload, now)
                for f in accept(msg.src):
                    if cfg.write_frames:
                        yield WriteFile(self._frame_bytes)
                    acct.frame_done_at[f] = pvm.sim.now
                    sim_tel.frame_done(f)
                a = policy.next_assignment(msg.src)
                if a is None:
                    if timeout is None:
                        stopped.add(msg.src)
                        yield Send(msg.src, cfg.msg_overhead_bytes, None, tag="stop")
                else:
                    yield dispatch(msg.src, a)
            if timeout is not None:
                # Deadline sweep: presume silent workers dead, requeue
                # their chains fresh, re-feed the idle survivors.
                for tid in list(deadlines):
                    if tid in dead or now < deadlines[tid]:
                        continue
                    dead.add(tid)
                    deadlines.pop(tid, None)
                    lost = inflight.pop(tid, None)
                    policy.on_worker_lost(tid)
                    sim_tel.recovery(
                        "deadline",
                        lost.seq if lost is not None else -1,
                        timeout,
                        worker=sim_tel.names.get(tid, f"tid{tid}"),
                    )
                for tid in worker_tids:
                    if tid in dead or tid in stopped or tid in inflight:
                        continue
                    a = policy.next_assignment(tid)
                    if a is not None:
                        yield dispatch(tid, a)
                if not inflight and not policy.finished:
                    raise RuntimeError("all workers dead with work remaining")

        for tid in worker_tids:
            if tid not in stopped:
                yield Send(tid, cfg.msg_overhead_bytes, None, tag="stop")


def simulate(
    strategy: str,
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    **options,
) -> SimulationOutcome:
    """Replay one :data:`SIM_STRATEGIES` strategy on the virtual cluster.

    The master runs on the first (fastest) machine and performs no compute,
    only scheduling and file output; a worker runs on *every* machine,
    including the master's — the paper's three-machine testbed.  The
    ``single`` strategies use ``machines[0]`` alone.  ``options`` are those
    of :meth:`SimTransport.for_strategy` and :class:`SimTransport`
    (``regions``, ``frames_per_chunk``, ``sec_per_work_unit``, ``thrash``,
    ``trace``, ``telemetry``, Ethernet parameters); ``failures`` and
    ``worker_timeout`` are for the ``-ft`` strategies only and a
    ``ValueError`` anywhere else.
    """
    return SimTransport.for_strategy(strategy, oracle, machines, cfg, **options).run()
