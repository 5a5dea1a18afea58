"""The simulator's shell of the :class:`~repro.sched.master.MasterCore`.

:func:`simulate` is the simulator's entry point: it looks a strategy name
up in :data:`~repro.sched.core.STRATEGIES`, builds the policy and the
geometry the row asks for (block regions, or speed-weighted frame ranges)
and runs it on a :class:`SimTransport`.  The transport turns the core's
actions into ``Send``/``Recv`` messages on the
:class:`~repro.cluster.VirtualPVM`'s virtual clock: it prices each
assignment through the :class:`~repro.sched.cost.OracleCostModel` and
writes a frame when all its (region, frame) units have arrived.  Its lanes
are the machine names.  Around it sit the generic slave program, the
telemetry bridge that replays a simulated run onto the pinned event
schema, and the outcome assembly.
"""

from __future__ import annotations

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
from ..runtime.options import TIMEOUT_FACTOR, TIMEOUT_MARGIN, RecoveryOptions
from .core import STRATEGIES, SchedulingPolicy, make_policy
from .cost import AssignmentCost, OracleCostModel
from .master import Close, MasterCore, Stop

__all__ = [
    "SIM_STRATEGIES",
    "SimTelemetry",
    "worker_program",
    "SimTransport",
    "default_worker_timeout",
    "simulate",
]

#: The names :func:`simulate` (and ``repro simulate --strategy``) accepts.
SIM_STRATEGIES = tuple(name for name, row in STRATEGIES.items() if row.label is not None)


class SimTelemetry:
    """Keeps a strategy replay's accounting and bridges it onto the pinned
    telemetry schema.

    The accounting — rays and work units dispatched, each frame's
    completion time — is what the outcome reads, telemetry on or off.

    Spans and events carry *virtual* timestamps (the telemetry clock is
    rebound to ``pvm.sim.now`` once the farm exists), but their names and
    attribute keys are exactly those of a real farm run — the property the
    schema-equality acceptance test pins down.  The master stamps each
    assignment's cost into its payload (``_rays``/...; payload contents
    don't affect the modeled message size, ``reply_bytes`` is explicit) and
    closes a unit's ``task`` span from its accepted flight.
    """

    def __init__(self, telemetry, oracle: AnimationCostOracle, mode: str):
        self.tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.enabled = self.tel.enabled
        self.oracle = oracle
        self.mode = mode
        self.n_workers = 1
        self.total_rays = 0
        self.total_units = 0.0
        self.frame_done_at: dict[int, float] = {}
        self.tasks_of: dict[str, int] = {}
        self.frame_rays: dict[int, int] = {}
        self.frame_computed: dict[int, int] = {}
        self.kind_totals = np.zeros(4, dtype=np.int64)
        self.rays_total = 0
        self.computed_pixels = 0
        self.copied_pixels = 0
        self.n_tasks = 0

    def bind(self, pvm: VirtualPVM, machines: list[Machine]) -> None:
        if not self.enabled:
            return
        self.tel.use_clock(VirtualClock(lambda: pvm.sim.now))
        self.n_workers = len(machines)
        self.tel.event(
            "run.start",
            engine="sim",
            workload="oracle",
            n_frames=self.oracle.n_frames,
            width=self.oracle.width,
            height=self.oracle.height,
            n_workers=self.n_workers,
            mode=self.mode,
        )

    def on_dispatch_cost(self, payload: dict, cost: AssignmentCost, region_px: int) -> None:
        """Accumulate each frame-step of the assignment, stamp its totals."""
        self.total_rays += cost.rays
        self.total_units += cost.units
        if not self.enabled:
            return
        for s in cost.per_frame:
            self.frame_rays[s.frame] = self.frame_rays.get(s.frame, 0) + s.rays
            self.frame_computed[s.frame] = self.frame_computed.get(s.frame, 0) + s.n_computed
        payload["_region_px"] = int(region_px)
        payload["_rays"] = int(cost.rays)
        payload["_n_computed"] = int(cost.n_computed)

    def on_done(self, flight, now: float) -> None:
        """Close the ``task`` span of an accepted flight."""
        if not self.enabled:
            return
        worker, payload = flight.lane, flight.args
        self.n_tasks += 1
        self.tasks_of[worker] = self.tasks_of.get(worker, 0) + 1
        self.tel.emit_span(
            "task",
            flight.t0,
            now - flight.t0,
            worker=worker,
            mode=self.mode,
            frame0=flight.assignment.frame0,
            frame1=flight.assignment.frame1,
            region=payload.get("_region_px", 0),
            rays=payload.get("_rays", 0),
            n_computed=payload.get("_n_computed", 0),
            attempt=0,
        )

    def frame_done(self, frame: int, now: float) -> None:
        self.frame_done_at[frame] = now
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
            n_workers=self.n_workers,
            rays_camera=int(self.kind_totals[0]),
            rays_reflected=int(self.kind_totals[1]),
            rays_refracted=int(self.kind_totals[2]),
            rays_shadow=int(self.kind_totals[3]),
            rays_total=int(self.rays_total),
        )


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


def _effective_rates(
    machines: list[Machine], cfg: RenderFarmConfig, region_pixels: int,
    thrash: ThrashModel | None,
) -> list[float]:
    """Each machine's speed under the memory pressure of a coherence chain
    over ``region_pixels`` pixels (raw speed / thrash slowdown)."""
    th = thrash if thrash is not None else ThrashModel(alpha=0.0)
    ws = cfg.fc_working_set_mb(region_pixels)
    return [m.speed / th.slowdown(ws, m.memory_mb) for m in machines]


def _fresh_frames(oracle: AnimationCostOracle, cfg: RenderFarmConfig) -> float:
    """A stolen tail's fresh first frame, in coherent frames (whole-frame means)."""
    n, px = oracle.n_frames, oracle.n_pixels
    coherent = (oracle.total_coherent_rays() - oracle.full_rays(0)) / max(n - 1, 1)
    fresh = cfg.task_units(oracle.total_full_rays() / n, True, chain_start=True, region_pixels=px)
    return fresh / max(cfg.task_units(coherent, True, region_pixels=px), 1e-9)


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

    ``worker_timeout`` is the core's fixed deadline, and the master's
    ``Recv`` wakes every half of it: a worker whose assignment outlives it
    is declared lost, the policy requeues its chain fresh (its coherence
    state died with the machine — the paper's chain-restart cost, paid only
    on failure), and the loss counts as a ``timeout`` in the outcome's
    ``recovery``.  Without it, a worker the policy declines is stopped at
    once.  ``failures`` is a list of ``(machine_name, virtual_time)``
    crashes to inject.
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
        ranges, weights = None, [m.speed for m in machines]
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
            fresh_frames=_fresh_frames(oracle, cfg) if row.coherent else 1.0,
            speeds={m.name: w for m, w in zip(machines, weights)},
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
    def _build_payload(self, a, sim_tel: SimTelemetry) -> dict:
        cost = self.cost.assignment_cost(a)
        p = {
            "units": cost.units,
            "ws_mb": cost.ws_mb,
            "reply_bytes": cost.reply_bytes,
            "_seq": a.seq,
        }
        sim_tel.on_dispatch_cost(p, cost, self.cost.region_size(a.region_index))
        return p

    def _core(self, pvm: VirtualPVM, sim_tel: SimTelemetry) -> MasterCore:
        """The master: lanes are machine names, dispatches are stamped on
        the virtual clock, and ``worker_timeout`` is the fixed deadline (a
        unit may be lost once per machine); without one no lane is lost."""
        recovery = None
        if self.worker_timeout is not None:
            recovery = RecoveryOptions(
                max_attempts=len(self.machines) + 1, task_timeout=self.worker_timeout
            )
        return MasterCore(
            self.policy,
            lambda a, lane: self._build_payload(a, sim_tel),
            recovery,
            telemetry=sim_tel.tel,
            flight_spans=False,
            clock=lambda: pvm.sim.now,
        )

    def _outcome(self, pvm, end, sim_tel, core, first_frame_time=None):
        sim_tel.finish(pvm, end)
        timeline = None
        if pvm.tracing and pvm.events:
            from ..cluster import render_timeline

            timeline = render_timeline(pvm)
        return SimulationOutcome(
            strategy=self.label,
            n_frames=self.oracle.n_frames,
            total_time=end,
            first_frame_time=first_frame_time,
            frame_completion_times=dict(sim_tel.frame_done_at),
            total_rays=sim_tel.total_rays,
            total_units=sim_tel.total_units,
            machine_busy_seconds=pvm.cpu_busy_seconds(),
            ethernet_busy_seconds=pvm.ethernet.busy_seconds,
            n_messages=pvm.ethernet.n_messages,
            bytes_on_wire=pvm.ethernet.bytes_carried,
            n_chain_starts=self.policy.n_chain_starts,
            n_steals=self.policy.n_steals,
            recovery=core.counts,
            timeline=timeline,
        )

    def run(self) -> SimulationOutcome:
        if self.single:
            return self._run_single()
        return self._run_farm()

    # -- single processor (no messages) ------------------------------------
    def _run_single(self) -> SimulationOutcome:
        """The core on one inline lane: the renderer completes each unit
        where it is dispatched."""
        cfg = self.cfg
        machine = self.machines[0]
        pvm = VirtualPVM(
            [machine], sec_per_work_unit=self.sec_per_work_unit, thrash=self.thrash
        )
        sim_tel = SimTelemetry(self.telemetry, self.oracle, self.label)
        sim_tel.bind(pvm, [machine])
        core = self._core(pvm, sim_tel)
        lane = machine.name

        def renderer():
            core.lane_up(lane)
            while not core.finished:
                for flight in core.tick(pvm.sim.now):
                    if isinstance(flight, Stop):
                        continue  # nothing left: the loop ends, or the core raised
                    p, a = flight.args, flight.assignment
                    yield Compute(units=p["units"], working_set_mb=p["ws_mb"])
                    if cfg.write_frames:
                        for _f in range(a.frame0, a.frame1):
                            yield WriteFile(self._frame_bytes)
                    sim_tel.on_done(flight, pvm.sim.now)
                    core.completed(lane, a.seq, p, pvm.sim.now)
                    for f in range(a.frame0, a.frame1):
                        sim_tel.frame_done(f, pvm.sim.now)

        pvm.spawn(renderer(), machine.name, name="renderer")
        end = pvm.run()
        return self._outcome(pvm, end, sim_tel, core, sim_tel.frame_done_at.get(0))

    # -- message-passing farm ----------------------------------------------
    def _run_farm(self) -> SimulationOutcome:
        machines = self.machines
        sim_tel = SimTelemetry(self.telemetry, self.oracle, self.label)
        pvm = VirtualPVM(
            machines, sec_per_work_unit=self.sec_per_work_unit, thrash=self.thrash,
            **self.ethernet_kwargs,
        )
        pvm.tracing = bool(self.trace)
        # Workers address the master through its (future) tid; tids are
        # assigned sequentially, so workers take 1..n and the master n+1.
        master_tid = len(machines) + 1
        tids = {
            m.name: pvm.spawn(worker_program(master_tid), m.name, name=f"worker-{m.name}")
            for m in machines
        }
        core = self._core(pvm, sim_tel)
        master = self._master(pvm, core, tids, sim_tel)
        if pvm.spawn(master, machines[0].name, name="master") != master_tid:
            raise RuntimeError("tid allocation changed; master address is stale")
        sim_tel.bind(pvm, machines)
        for machine_name, at in self.failures:
            pvm.fail_machine(machine_name, at)
        end = pvm.run()
        return self._outcome(pvm, end, sim_tel, core)

    def _master(
        self, pvm: VirtualPVM, core: MasterCore, tids: dict[str, int], sim_tel: SimTelemetry
    ) -> Iterator:
        """The core's actions as messages: a dispatch is a ``task`` Send, a
        stop a ``stop`` Send, a close a presumed-dead machine; every worker
        still running gets its stop once the policy is finished."""
        cfg = self.cfg
        lane_of = {tid: lane for lane, tid in tids.items()}
        frames_done = dict.fromkeys(range(self.oracle.n_frames), 0)
        stopped: set[str] = set()
        recv_timeout = None if self.worker_timeout is None else self.worker_timeout / 2.0
        for lane in tids:
            core.lane_up(lane)
        now = pvm.sim.now
        while True:
            for act in core.tick(now):
                if isinstance(act, Close):
                    core.lost(act.lane, act.reason, now)
                elif isinstance(act, Stop):
                    stopped.add(act.lane)
                    yield Send(tids[act.lane], cfg.msg_overhead_bytes, None, tag="stop")
                else:
                    yield Send(tids[act.lane], cfg.request_bytes, act.args, tag="task")
            if core.finished:
                break
            msg = yield Recv(tag="done", timeout=recv_timeout)
            now = pvm.sim.now
            if msg is None:
                continue
            lane = lane_of[msg.src]
            flight = core.completed(lane, msg.payload["_seq"], msg.payload, now)
            if flight is None:
                continue  # a machine presumed dead answered after all
            sim_tel.on_done(flight, now)
            a = flight.assignment
            for f in range(a.frame0, a.frame1):
                frames_done[f] += 1
                if frames_done[f] == self.policy.units_per_frame:
                    if cfg.write_frames:
                        yield WriteFile(self._frame_bytes)
                    sim_tel.frame_done(f, pvm.sim.now)

        for lane, tid in tids.items():
            if lane not in stopped:
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
