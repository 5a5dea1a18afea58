#!/usr/bin/env python3
"""Fault-injection drill for the supervised render farm.

The paper's NOW was built from colleagues' desktops — machines that crash,
hang and return garbage.  This demo renders the Newton animation on the
real local farm while a :class:`FaultPlan` deterministically kills two
worker processes, stalls a third task past its deadline and NaN-corrupts a
fourth — then verifies the assembled frames are *bit-identical* to a
fault-free serial reference.  A second act interrupts a spooled render and
resumes it, re-executing only the unfinished tasks.

Run:  python examples/fault_injection_demo.py [--frames 3]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runtime import (  # noqa: E402
    AnimationSpec,
    FaultPlan,
    LocalRenderFarm,
    SupervisorError,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=3)
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--height", type=int, default=48)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    spec = AnimationSpec.newton(
        n_frames=args.frames, width=args.width, height=args.height
    )
    grid = 16

    print("reference: one coherent renderer, no parallelism, no faults...")
    reference = LocalRenderFarm(
        spec, mode="frame", executor="serial", grid_resolution=grid
    ).render_reference()

    # -- act 1: crash, hang, corrupt --------------------------------------------
    plan = FaultPlan(
        (
            FaultPlan.crash(1),  # worker dies mid-task (os._exit), pool rebuilds
            FaultPlan.crash(5),  # ...and a second one, later
            FaultPlan.hang(3, attempts=(0, 1, 2), hang_seconds=30.0),  # stalls past the deadline
            FaultPlan.corrupting(7, attempts=(0, 1)),  # returns NaN pixels, twice
        )
    )
    farm = LocalRenderFarm(
        spec,
        n_workers=args.workers,
        mode="frame",
        executor="process",
        grid_resolution=grid,
        fault_plan=plan,
        task_timeout=5.0,
    )
    print(f"\nrendering {farm._anim.n_frames} frames with 2 crashes, "
          "1 hang and 1 corrupted block planned...")
    t0 = time.perf_counter()
    result = farm.render()
    dt = time.perf_counter() - t0
    identical = np.array_equal(result.frames, reference.frames)
    # Every loss sends its unit back to the policy, so a unit may take
    # several dispatches; attempts are numbered per unit.
    n_units = len({a.task_index for a in result.attempts})
    print(f"done in {dt:.1f}s: {n_units} tasks in {result.n_tasks} dispatches, "
          f"{result.n_retries} retries, {result.n_timeouts} timeouts, "
          f"{result.n_crashes} crash events, {result.n_invalid} rejected results")
    print(f"bit-identical to fault-free reference: {identical}")
    assert identical

    # -- act 2: interrupt and resume --------------------------------------------
    with tempfile.TemporaryDirectory() as d:
        run_dir = Path(d) / "run"
        # Poison two tasks so the first render fails partway with its
        # completed work spooled to run_dir.
        poison = FaultPlan(
            tuple(
                FaultPlan.raising(i, attempts=tuple(range(6))) for i in (6, 9)
            )
        )
        doomed = LocalRenderFarm(
            spec,
            n_workers=args.workers,
            mode="frame",
            executor="process",
            grid_resolution=grid,
            fault_plan=poison,
            max_attempts=2,
            degrade_serial=False,
        )
        print("\ninterrupting a spooled render (two tasks poisoned)...")
        try:
            doomed.render(run_dir=run_dir)
        except SupervisorError as exc:
            print(f"render failed as planned: {exc}")
        spooled = len(list(run_dir.glob("task_*.npz")))
        print(f"{spooled}/{n_units} tasks survive in {run_dir.name}/")

        resumed = LocalRenderFarm(
            spec,
            n_workers=args.workers,
            mode="frame",
            executor="process",
            grid_resolution=grid,
        ).render(run_dir=run_dir)
        re_executed = {a.task_index for a in resumed.attempts}
        identical = np.array_equal(resumed.frames, reference.frames)
        print(f"resumed: {resumed.n_from_checkpoint} tasks from checkpoint, "
              f"{len(re_executed)} re-executed")
        print(f"bit-identical to fault-free reference: {identical}")
        assert identical


if __name__ == "__main__":
    main()
