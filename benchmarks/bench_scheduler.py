"""Ablation — dynamic schedules vs. static on the real supervised executor.

The paper's demand-driven and adaptive distribution exist to absorb
processor heterogeneity: a static pre-partition leaves the fast worker
idle while the slow one grinds through its fixed share.  This bench runs
the farm's three ``--schedule`` modes through the real
:class:`~repro.runtime.supervisor.TaskSupervisor` (thread executor, two
lanes) on a calibrated sleep workload skewed 3x against one lane:

* ``static``   — one fixed frame range per lane, no redistribution
  (an adaptive policy with stealing off and whole-range segments,
  which is exactly what the static sequence farm dispatches);
* ``demand``   — single-frame units pulled from a shared queue;
* ``adaptive`` — per-lane chains with tail-stealing.

Both dynamic schedules must beat static wall-clock.
"""

from __future__ import annotations

import time

from repro.obs import write_chrome_trace
from repro.parallel.partition import sequence_ranges
from repro.runtime import FarmOptions
from repro.runtime.supervisor import TaskSupervisor
from repro.sched.core import AdaptiveChainPolicy, Chain, DemandDrivenPolicy
from repro.telemetry import InMemorySink, Telemetry

from _bench_utils import write_result

N_FRAMES = 16
FRAME_SECONDS = 0.02
SLOW_LANE = "lane1"
SLOW_FACTOR = 3.0


def _skewed_frame_task(args):
    """One assignment on one lane: sleep per frame, 3x slower on SLOW_LANE."""
    lane, f0, f1 = args
    per_frame = FRAME_SECONDS * (SLOW_FACTOR if lane == SLOW_LANE else 1.0)
    time.sleep(per_frame * (f1 - f0))
    return args


def _policies():
    ranges = sequence_ranges(N_FRAMES, 2)
    static = AdaptiveChainPolicy(
        [Chain(-1, a, b, fresh=True) for a, b in ranges],
        use_coherence=True,
        steal=False,
        segment_frames=N_FRAMES,
    )
    demand = DemandDrivenPolicy(
        [(-1, f, f + 1) for f in range(N_FRAMES)], use_coherence=False
    )
    adaptive = AdaptiveChainPolicy(
        [Chain(-1, a, b, fresh=True) for a, b in ranges],
        use_coherence=True,
        min_steal_frames=2,
        segment_frames=1,
    )
    return {"static": static, "demand": demand, "adaptive": adaptive}


def _run(results_dir):
    walls: dict[str, float] = {}
    logs: dict[str, list] = {}
    for name, policy in _policies().items():
        tel = Telemetry(sinks=[sink := InMemorySink()], run_id=f"sched-{name}")
        transport = TaskSupervisor(
            policy,
            _skewed_frame_task,
            lambda a, lane: (lane, a.frame0, a.frame1),
            FarmOptions(n_workers=2, executor="thread", telemetry=tel),
        )
        t0 = time.perf_counter()
        out = transport.run()
        walls[name] = time.perf_counter() - t0
        logs[name] = out.assignments
        tel.close()
        # One Perfetto-loadable lane timeline per schedule mode.
        write_chrome_trace(
            sink.events, results_dir / f"trace_scheduler_{name}.json",
            run_id=f"sched-{name}",
        )
    return walls, logs


def test_dynamic_schedules_beat_static(benchmark, results_dir):
    walls, logs = benchmark.pedantic(_run, args=(results_dir,), rounds=1, iterations=1)
    lines = [
        f"Real executor, 2 lanes, {SLOW_LANE} skewed {SLOW_FACTOR:.0f}x slower "
        f"({N_FRAMES} frames @ {FRAME_SECONDS * 1000:.0f} ms/frame on the fast lane):",
    ]
    for name in ("static", "demand", "adaptive"):
        lines.append(
            f"  {name:<9} wall={walls[name]:6.3f}s  tasks={len(logs[name]):3d}  "
            f"speedup_vs_static={walls['static'] / walls[name]:.2f}x"
        )
    write_result(results_dir, "ablation_scheduler.txt", "\n".join(lines))
    # the whole point of demand/adaptive distribution: absorb the skew
    assert walls["demand"] < walls["static"]
    assert walls["adaptive"] < walls["static"]
