"""Fault-tolerant distributed rendering (an extension beyond the paper).

A NOW is built from workstations that people reboot, unplug and crash; a
render that loses a night's frames to one dead slave is not "an extremely
powerful rendering environment".  This module hardens the coherence
strategies against machine failures:

* the master hands out per-frame steps with a **deadline** and waits with
  a Recv timeout instead of blocking forever;
* an assignment that misses its deadline declares the worker dead; the
  orphaned chain is re-queued with ``fresh=True`` (its coherence state
  died with the machine — the paper's chain-restart cost, paid only on
  failure) and handed to the next live worker;
* duplicate completions (a worker that was merely slow, not dead) are
  detected by a completed-(block, frame) set and ignored.

Every frame of every block completes exactly once as long as at least one
worker survives.  Both of the paper's coherence decompositions are
covered: :func:`simulate_frame_division_fc_fault_tolerant` (per-block
chains over the whole animation) and
:func:`simulate_sequence_division_fc_fault_tolerant` (whole-frame chains
over contiguous subsequences).  The same deadline heuristic —
:func:`default_worker_timeout`, 3x the worst legitimate task — also
informs the *real* farm's supervisor (:mod:`repro.runtime.supervisor`),
which applies the identical factor to observed task durations.
"""

from __future__ import annotations

from collections import deque

from ..cluster import Machine, Recv, Send, ThrashModel, WriteFile
from ..imageio import targa_nbytes
from ..sched.core import Chain as _Chain
from ..sched.sim import (
    RunAccounting as _RunAccounting,
    SimTelemetry as _SimTelemetry,
    outcome_from as _outcome,
    spawn_farm as _spawn_farm,
)
from .config import RenderFarmConfig
from .oracle import AnimationCostOracle
from .outcome import SimulationOutcome
from .partition import PixelRegion, sequence_ranges
from .strategies import default_blocks

__all__ = [
    "simulate_frame_division_fc_fault_tolerant",
    "simulate_sequence_division_fc_fault_tolerant",
    "default_worker_timeout",
]


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
    slowest (and most memory-pressured) machine, tripled for scheduling
    slack.
    """
    th = thrash if thrash is not None else ThrashModel(alpha=0.0)
    region_list = [(None, oracle.n_pixels)] if regions is None else [
        (r.pixels, r.n_pixels) for r in regions
    ]
    worst_units = 0.0
    for pixels, n_pixels in region_list:
        for f in range(oracle.n_frames):
            rays = oracle.full_rays(f, pixels)
            units = cfg.task_units(rays, True, chain_start=True, region_pixels=n_pixels)
            worst_units = max(worst_units, units)
    worst_ws = cfg.fc_working_set_mb(max(n for _p, n in region_list))
    worst_rate = min(m.speed / th.slowdown(worst_ws, m.memory_mb) for m in machines)
    return 3.0 * worst_units * sec_per_work_unit / worst_rate + 1.0


def _ft_master_factory(
    oracle: AnimationCostOracle,
    cfg: RenderFarmConfig,
    regions: list[PixelRegion] | None,
    initial_chains: list[_Chain],
    worker_timeout: float,
    blocks_per_frame: int,
    sim_tel: _SimTelemetry | None = None,
):
    """Deadline-supervised master shared by both fault-tolerant strategies.

    ``regions`` is the block list for frame division or None for sequence
    division (chains then cover whole frames; region index 0 means "the
    frame").
    """
    region_pixels = None if regions is None else [r.pixels for r in regions]
    frame_bytes = targa_nbytes(oracle.width, oracle.height)
    total_steps = sum(c.remaining for c in initial_chains)

    def reg_of(ri: int):
        return None if region_pixels is None else region_pixels[ri]

    def size_of(ri: int) -> int:
        return oracle.n_pixels if regions is None else regions[ri].n_pixels

    def master_factory(pvm, worker_tids, acct: _RunAccounting):
        timeout = worker_timeout
        supply = deque(initial_chains)
        assigned: dict[int, tuple[_Chain, int, float]] = {}
        dead: set[int] = set()
        idle: set[int] = set()
        completed: set[tuple[int, int]] = set()
        blocks_done_of_frame = {f: 0 for f in range(oracle.n_frames)}

        def dispatch_payload(chain: _Chain) -> dict:
            f = chain.next_frame
            reg = reg_of(chain.region_index)
            if chain.fresh:
                rays = oracle.full_rays(f, reg)
                n_computed = size_of(chain.region_index)
                acct.n_chain_starts += 1
            else:
                rays, n_computed = oracle.coherent_rays(f, reg)
            units = cfg.task_units(
                rays, True, chain_start=chain.fresh,
                region_pixels=size_of(chain.region_index),
            )
            acct.total_rays += rays
            acct.total_units += units
            payload = {
                "frame": f,
                "region": chain.region_index,
                "units": units,
                "ws_mb": cfg.fc_working_set_mb(size_of(chain.region_index)),
                "reply_bytes": cfg.result_bytes(max(n_computed, 1)),
            }
            if sim_tel is not None:
                sim_tel.on_dispatch(
                    payload, f, size_of(chain.region_index), rays, n_computed, pvm.sim.now
                )
            chain.next_frame += 1
            chain.fresh = False
            return payload

        def next_chain_for(tid: int) -> _Chain | None:
            c_info = assigned.get(tid)
            if c_info is not None and c_info[0].remaining > 0:
                return c_info[0]
            if supply:
                return supply.popleft()
            return None

        def steal_tail() -> _Chain | None:
            """Split the largest not-yet-dispatched chain tail (the base
            strategy's adaptive subdivision, applied to live assignments)."""
            victim_tid, victim = None, None
            for tid, (chain, _f, _dl) in assigned.items():
                if tid in dead or chain.remaining < cfg.min_steal_frames:
                    continue
                if victim is None or chain.remaining > victim.remaining:
                    victim_tid, victim = tid, chain
            if victim is None:
                return None
            keep = max(1, victim.remaining // 2)
            mid = victim.next_frame + keep
            stolen = _Chain(victim.region_index, mid, victim.end_frame, True)
            victim.end_frame = mid
            acct.n_steals += 1
            return stolen

        def sweep_deadlines(now: float):
            for tid in list(assigned):
                chain, frame, deadline = assigned[tid]
                if now >= deadline and tid not in dead:
                    # Presumed dead: orphan the chain, restart it fresh at
                    # the frame that was in flight.
                    dead.add(tid)
                    acct.n_steals += 1  # recorded as recovery events
                    if sim_tel is not None:
                        sim_tel.recovery(
                            "deadline",
                            chain.region_index,
                            worker_timeout,
                            worker=sim_tel.names.get(tid, f"tid{tid}"),
                        )
                    chain.fresh = True
                    chain.next_frame = frame
                    supply.append(chain)
                    del assigned[tid]

        # -- prime every worker ------------------------------------------------
        for tid in worker_tids:
            c = next_chain_for(tid)
            if c is None:
                idle.add(tid)
                continue
            frame = c.next_frame
            yield Send(tid, cfg.request_bytes, dispatch_payload(c), tag="task")
            assigned[tid] = (c, frame, pvm.sim.now + timeout)

        while len(completed) < total_steps:
            msg = yield Recv(tag="done", timeout=timeout / 2.0)
            now = pvm.sim.now
            if msg is not None and msg.src not in dead:
                if sim_tel is not None:
                    sim_tel.on_done(msg.src, msg.payload, now)
                key = (msg.payload["region"], msg.payload["frame"])
                if key not in completed:
                    completed.add(key)
                    f = msg.payload["frame"]
                    blocks_done_of_frame[f] += 1
                    if blocks_done_of_frame[f] == blocks_per_frame:
                        if cfg.write_frames:
                            yield WriteFile(frame_bytes)
                        acct.frame_done_at[f] = pvm.sim.now
                        if sim_tel is not None:
                            sim_tel.frame_done(f)
                # The sender is alive and hungry regardless of duplication.
                info = assigned.pop(msg.src, None)
                c = info[0] if info is not None and info[0].remaining > 0 else None
                if c is None and supply:
                    c = supply.popleft()
                if c is not None:
                    frame = c.next_frame
                    yield Send(msg.src, cfg.request_bytes, dispatch_payload(c), tag="task")
                    assigned[msg.src] = (c, frame, pvm.sim.now + timeout)
                else:
                    idle.add(msg.src)
            sweep_deadlines(now)
            # Re-dispatch recovered chains to idle live workers; when the
            # supply is dry, steal tail halves from loaded chains instead.
            while idle:
                tid = idle.pop()
                if tid in dead:
                    continue
                c = supply.popleft() if supply else steal_tail()
                if c is None:
                    idle.add(tid)
                    break
                frame = c.next_frame
                yield Send(tid, cfg.request_bytes, dispatch_payload(c), tag="task")
                assigned[tid] = (c, frame, pvm.sim.now + timeout)
            if not assigned and not supply and len(completed) < total_steps:
                raise RuntimeError("all workers dead with work remaining")

        # Stop every worker, including ones we *declared* dead: a worker
        # that was merely slow (false positive) must not deadlock the
        # simulation, and messages to truly crashed tasks are dropped.
        for tid in worker_tids:
            yield Send(tid, cfg.msg_overhead_bytes, None, tag="stop")

    return master_factory


def simulate_frame_division_fc_fault_tolerant(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    regions: list[PixelRegion] | None = None,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    failures: list[tuple[str, float]] | None = None,
    worker_timeout: float | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """Frame division + FC with deadline-based failure recovery.

    ``failures`` is a list of ``(machine_name, virtual_time)`` crashes to
    inject.  The master must still complete every (block, frame) exactly
    once; the returned outcome's ``n_steals`` counts adaptive events of
    both kinds (deadline recoveries and tail steals) and every fresh chain
    restart shows up in ``n_chain_starts`` and the ray total.
    """
    cfg = cfg or RenderFarmConfig()
    regions = regions if regions is not None else default_blocks(oracle)
    if worker_timeout is None:
        worker_timeout = default_worker_timeout(
            oracle, machines, cfg, sec_per_work_unit, thrash, regions
        )
    chains = [_Chain(ri, 0, oracle.n_frames, True) for ri in range(len(regions))]
    sim_tel = _SimTelemetry(telemetry, oracle, "frame-division+fc+ft")
    factory = _ft_master_factory(
        oracle, cfg, regions, chains, worker_timeout, blocks_per_frame=len(regions),
        sim_tel=sim_tel,
    )
    pvm, acct = _spawn_farm(
        machines, sec_per_work_unit, thrash, factory, trace=trace, sim_tel=sim_tel,
        **ethernet_kwargs,
    )
    for machine_name, at in failures or []:
        pvm.fail_machine(machine_name, at)
    end = pvm.run()
    return _outcome("frame-division+fc+ft", oracle, pvm, acct, end, sim_tel=sim_tel)


def simulate_sequence_division_fc_fault_tolerant(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    failures: list[tuple[str, float]] | None = None,
    worker_timeout: float | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """Sequence division + FC with the same deadline-based recovery.

    Initial subsequences are weighted by effective machine speed exactly
    like :func:`~repro.parallel.strategies.simulate_sequence_division_fc`;
    a machine death orphans its whole-frame chain, which restarts fresh
    (full-frame cost for one frame) on the next live worker.
    """
    cfg = cfg or RenderFarmConfig()
    th = thrash if thrash is not None else ThrashModel(alpha=0.0)
    if worker_timeout is None:
        worker_timeout = default_worker_timeout(
            oracle, machines, cfg, sec_per_work_unit, thrash, regions=None
        )
    ws = cfg.fc_working_set_mb(oracle.n_pixels)
    weights = [m.speed / th.slowdown(ws, m.memory_mb) for m in machines]
    ranges = sequence_ranges(oracle.n_frames, len(machines), weights=weights)
    chains = [_Chain(0, a, b, True) for a, b in ranges]
    sim_tel = _SimTelemetry(telemetry, oracle, "sequence-division+fc+ft")
    factory = _ft_master_factory(
        oracle, cfg, None, chains, worker_timeout, blocks_per_frame=1, sim_tel=sim_tel
    )
    pvm, acct = _spawn_farm(
        machines, sec_per_work_unit, thrash, factory, trace=trace, sim_tel=sim_tel,
        **ethernet_kwargs,
    )
    for machine_name, at in failures or []:
        pvm.fail_machine(machine_name, at)
    end = pvm.run()
    return _outcome("sequence-division+fc+ft", oracle, pvm, acct, end, sim_tel=sim_tel)
