"""What a crash costs: service restart recovery vs. a crash-free run.

The persistent service's robustness claim is cheap to state — ``kill -9``
plus ``--resume`` finishes every job bit-identically — but the paper's
operators would have asked the next question: *how much render time does
a crash actually cost?*  This benchmark answers it with the same
emulated-crash discipline the test suite uses (save a ``running``
``job.json``, keep only half its checkpoint spool, restart):

* **recovery time** — the restart (reading every ``job.json`` back and
  re-admitting the unfinished jobs) and the resumed attempt's wall time;
* **re-rendered-task overhead** — tasks the resumed run had to render
  again vs. the crash-free run, which is the real price of the spool's
  unit granularity (at most the in-flight tasks, never the spooled
  ones: a unit's file in the spool is the only record that it is done).

Emits ``BENCH_service.json`` (render metrics from the crash-free job's
telemetry, recovery numbers in ``extra``) and ``service_restart.txt``.
"""

from __future__ import annotations

import dataclasses
import shutil
import time

import numpy as np
from _bench_utils import write_result

from repro.service import RenderService
from repro.telemetry import metrics_from_events, read_events, write_bench_json

SPEC = {"workload": "newton", "n_frames": 6, "width": 64, "height": 48,
        "grid_resolution": 12}
FARM = dict(n_workers=2, executor="thread")


def _run_one(state_dir):
    """Submit SPEC and render it to completion; returns (service, job, wall)."""
    service = RenderService(state_dir, **FARM)
    job, _ = service.submit(SPEC)
    t0 = time.perf_counter()
    out = service.step()
    wall = time.perf_counter() - t0
    assert out is job and out.state == "done"
    service.stop()
    return job, wall


def test_service_restart_overhead(results_dir, tmp_path):
    # -- crash-free baseline -------------------------------------------------
    free_dir = tmp_path / "free"
    free_job, free_wall = _run_one(free_dir)
    free_spool = free_dir / "jobs" / free_job.job_id / "spool"
    spooled = sorted(p.name for p in free_spool.glob("task_*.npz"))
    with np.load(free_dir / "jobs" / free_job.job_id / "frames.npz") as npz:
        free_frames = npz["frames"]

    # -- emulated crash: job saved running, half its spool on disk ----------
    crash_dir = tmp_path / "crash"
    service = RenderService(crash_dir, **FARM)
    job, _ = service.submit(SPEC)
    service.stop()
    kept = spooled[: len(spooled) // 2]
    job_dir = crash_dir / "jobs" / job.job_id
    dataclasses.replace(job, state="running", detail="attempt 1/3").save(job_dir)
    spool = job_dir / "spool"
    spool.mkdir(parents=True)
    shutil.copy(free_spool / "manifest.json", spool / "manifest.json")
    for name in kept:
        shutil.copy(free_spool / name, spool / name)

    # -- resume --------------------------------------------------------------
    t0 = time.perf_counter()
    resumed = RenderService(crash_dir, resume=True, **FARM)
    restart_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = resumed.step()
    resume_wall = time.perf_counter() - t0
    assert out.state == "done"
    assert out.n_from_checkpoint == len(kept)
    resumed.stop()
    with np.load(crash_dir / "jobs" / job.job_id / "frames.npz") as npz:
        np.testing.assert_array_equal(npz["frames"], free_frames)

    n_tasks = out.n_tasks
    re_rendered = n_tasks - out.n_from_checkpoint
    metrics = metrics_from_events(
        read_events(free_dir / "jobs" / free_job.job_id / "events.jsonl")
    )
    write_bench_json(
        results_dir,
        "service",
        metrics,
        extra={
            "crash_free_wall": free_wall,
            "restart_wall": restart_wall,
            "resume_wall": resume_wall,
            "recovery_total_wall": restart_wall + resume_wall,
            "n_tasks": n_tasks,
            "n_from_checkpoint": out.n_from_checkpoint,
            "re_rendered_tasks": re_rendered,
            "re_render_fraction": re_rendered / n_tasks,
            "resume_over_crash_free": (restart_wall + resume_wall) / free_wall,
        },
    )

    lines = [
        "service restart recovery (newton "
        f"{SPEC['n_frames']}f @ {SPEC['width']}x{SPEC['height']}, "
        f"{FARM['n_workers']} workers, crash at {len(kept)}/{n_tasks} tasks)",
        f"  crash-free render      {free_wall:.3f} s  ({n_tasks} tasks)",
        f"  restart                {restart_wall * 1e3:.1f} ms",
        f"  resumed render         {resume_wall:.3f} s  "
        f"({re_rendered} tasks re-rendered, {out.n_from_checkpoint} from spool)",
        f"  recovery / crash-free  {(restart_wall + resume_wall) / free_wall:.2f}x",
        "  frames bit-identical to the crash-free run",
    ]
    write_result(results_dir, "service_restart.txt", "\n".join(lines))
