#!/usr/bin/env python
"""CI benchmark smoke: a tiny instrumented render, gated on the bench contract.

Runs one small farm render through the unified API with telemetry on,
distills the event log into the required bench metrics, writes
``BENCH_smoke.json``, and exits non-zero if anything drifts:

* the event log violates the pinned telemetry schema,
* the core event set is not covered,
* the bench payload loses a required metric key,
* the render produced no work (zero rays or pixels),
* a scheduling policy dispatches differently on the simulator transport
  than on the process transport (per-task assignment-log diff for one
  demand-driven and one adaptive policy).

Usage::

    python tools/bench_smoke.py [--out benchmarks/results]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import RenderRequest, render  # noqa: E402
from repro.telemetry import (  # noqa: E402
    CORE_EVENTS,
    REQUIRED_BENCH_METRICS,
    SchemaError,
    metrics_from_events,
    validate_bench,
    validate_events,
    write_bench_json,
)


def _diff_transport_logs() -> list[str]:
    """Run one demand-driven and one adaptive policy on BOTH transports
    (simulator vs. supervised process pool) over a tiny synthetic oracle
    and diff the per-task assignment logs.  Returns human-readable
    mismatch lines; empty means the scheduling core is transport-agnostic.
    """
    import numpy as np

    from repro.cluster import ThrashModel, ncsu_testbed
    from repro.parallel.config import RenderFarmConfig
    from repro.parallel.oracle import AnimationCostOracle
    from repro.runtime import FarmOptions
    from repro.runtime.supervisor import TaskSupervisor, assignment_echo_task
    from repro.sched import OracleCostModel, SimTransport, make_policy

    n_frames, width, height = 6, 6, 4
    n_px = width * height
    rng_costs = (np.arange(n_frames * n_px, dtype=np.int32).reshape(n_frames, n_px) % 5) + 1
    dirty = [np.array([], dtype=np.int64)] + [
        np.arange(f % n_px, dtype=np.int64) for f in range(1, n_frames)
    ]
    oracle = AnimationCostOracle(width, height, n_frames, rng_costs, dirty, grid_resolution=4)
    machines = ncsu_testbed()
    cfg = RenderFarmConfig()

    cases = {
        # queue-ordered: any worker count dispatches identically
        "demand-driven": (
            lambda: make_policy("frame-division-nofc", n_frames, n_regions=1),
            2,
        ),
        # chain-ordered: one worker walks the chains deterministically
        "adaptive": (
            lambda: make_policy(
                "sequence-division-fc", n_frames, sequence_ranges=[(0, 3), (3, 6)]
            ),
            1,
        ),
    }
    problems: list[str] = []
    for name, (build, n_workers) in cases.items():
        p_sim, p_proc = build(), build()
        SimTransport(
            p_sim, oracle, machines[:n_workers], cfg,
            label=name, sec_per_work_unit=1e-4, thrash=ThrashModel(alpha=0.0),
        ).run()
        TaskSupervisor(
            p_proc, assignment_echo_task, lambda a, lane: a.key(),
            FarmOptions(n_workers=n_workers, executor="serial"),
        ).run()
        sim_log = [a.key() for a in p_sim.log]
        proc_log = [a.key() for a in p_proc.log]
        if sim_log != proc_log:
            problems.append(f"{name}: sim dispatched {sim_log} but process {proc_log}")
            continue
        cost = OracleCostModel(oracle, cfg)
        if cost.total_rays_of_log(p_sim.log) != cost.total_rays_of_log(p_proc.log):
            problems.append(f"{name}: transports disagree on modelled ray totals")
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("benchmarks/results"))
    ap.add_argument("--frames", type=int, default=3)
    ap.add_argument("--width", type=int, default=48)
    ap.add_argument("--height", type=int, default=36)
    args = ap.parse_args(argv)

    result = render(
        RenderRequest(
            workload="newton",
            engine="farm",
            executor="thread",
            n_workers=2,
            mode="frame",
            n_frames=args.frames,
            width=args.width,
            height=args.height,
            grid_resolution=12,
            verify=True,
            telemetry=True,
        )
    )
    if result.bit_identical is not True:
        print("FAIL: farm output not bit-identical to the serial reference")
        return 1

    try:
        validate_events(result.events)
    except SchemaError as exc:
        print(f"FAIL: telemetry schema drift: {exc}")
        return 1
    names = {e["name"] for e in result.events}
    missing = set(CORE_EVENTS) - names
    if missing:
        print(f"FAIL: core telemetry events missing: {sorted(missing)}")
        return 1

    metrics = metrics_from_events(result.events)
    try:
        path = write_bench_json(args.out, "smoke", metrics, extra={"engine": "farm"})
        validate_bench(json.loads(path.read_text()))
    except ValueError as exc:
        print(f"FAIL: bench payload drift: {exc}")
        return 1
    if metrics["rays_total"] <= 0 or metrics["computed_pixels"] <= 0:
        print(f"FAIL: smoke render did no work: {metrics}")
        return 1

    mismatches = _diff_transport_logs()
    if mismatches:
        print("FAIL: scheduler transports diverged:")
        for line in mismatches:
            print(f"  {line}")
        return 1
    print("OK: sim and process transports dispatch identically (demand + adaptive)")

    print(f"OK: {path}")
    for key in REQUIRED_BENCH_METRICS:
        print(f"  {key:<18} {metrics[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
