#!/usr/bin/env python
"""CI service smoke: ``kill -9`` the render service mid-job, resume, verify.

The drill the persistent service is built around, end to end and out of
process:

1. render crash-free **references** for two job specs in-process;
2. start ``repro serve`` as a subprocess, submit the two jobs with
   different priorities over the RNW1 control socket;
3. poll job status until the first job is demonstrably mid-render
   (tasks spooled, more to go), then ``SIGKILL`` the daemon — no
   warning, no cleanup, exactly like a workstation losing power;
4. restart ``repro serve --resume`` on the same state directory and
   wait for **both** jobs to finish.

Exits non-zero if anything the service promises drifts:

* either job fails to reach ``done`` after the restart,
* the interrupted job re-renders work (``n_from_checkpoint`` empty),
* either job's frames differ from its crash-free reference by one bit,
* any event log violates the pinned telemetry schema,
* either job's trace has orphan spans (tools/trace_lint.py also runs on
  the exported Chrome trace), or
* the daemon fails to refuse a stale state dir without ``--resume``.

Usage::

    python tools/service_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import RenderRequest, render  # noqa: E402
from repro.obs import find_orphan_spans, write_chrome_trace  # noqa: E402
from repro.service import client as svc  # noqa: E402
from repro.telemetry import SchemaError, read_events, validate_events  # noqa: E402

#: Job A is big enough to be mid-flight when the SIGKILL lands; job B
#: queues behind it at lower priority and must survive the crash too.
SPEC_A = {"workload": "newton", "n_frames": 8, "width": 64, "height": 48,
          "grid_resolution": 12}
SPEC_B = {"workload": "newton", "n_frames": 3, "width": 48, "height": 36,
          "grid_resolution": 12}
FARM = {"n_workers": 2, "executor": "thread"}


def reference_frames(spec: dict) -> np.ndarray:
    """The crash-free oracle: the same farm render, no service, no crash."""
    result = render(RenderRequest(engine="farm", schedule="static",
                                  **FARM, **spec))
    return np.asarray(result.frames)


def start_daemon(state_dir: Path, *, resume: bool) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--state-dir", str(state_dir), "--port", "0",
        "--workers", str(FARM["n_workers"]), "--executor", FARM["executor"],
        "--verbose",
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env={**os.environ,
             "PYTHONPATH": str(ROOT / "src") + os.pathsep
             + os.environ.get("PYTHONPATH", "")},
    )


def control_addr(state_dir: Path, proc: subprocess.Popen,
                 not_pid: int | None = None, timeout: float = 30.0) -> str:
    """Wait for the daemon to publish its (freshly bound) control address."""
    info_path = state_dir / "service.json"
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read().decode(errors="replace")
            raise RuntimeError(f"daemon exited {proc.returncode} early:\n{out}")
        if info_path.exists():
            info = json.loads(info_path.read_text())
            if info.get("pid") != not_pid:
                return f"{info['host']}:{info['port']}"
        time.sleep(0.05)
    raise RuntimeError("daemon never published service.json")


def fail(msg: str) -> int:
    print(f"FAIL: {msg}")
    return 1


def job_frames(state_dir: Path, job_id: str) -> np.ndarray:
    with np.load(state_dir / "jobs" / job_id / "frames.npz") as npz:
        return npz["frames"]


def check_job_trace(state_dir: Path, job_id: str) -> str | None:
    events = read_events(state_dir / "jobs" / job_id / "events.jsonl")
    if not events:
        return f"job {job_id} has no event log"
    try:
        validate_events(events)
    except SchemaError as exc:
        return f"job {job_id} telemetry schema drift: {exc}"
    orphans = find_orphan_spans(events)
    if orphans:
        return f"job {job_id} trace has {len(orphans)} orphan spans"
    return None


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    print("rendering crash-free references...")
    ref_a = reference_frames(SPEC_A)
    ref_b = reference_frames(SPEC_B)

    with tempfile.TemporaryDirectory(prefix="service_smoke_") as tmp:
        state_dir = Path(tmp) / "svc"

        # -- phase 1: submit two jobs, SIGKILL the daemon mid-first-job ------
        daemon = start_daemon(state_dir, resume=False)
        addr = control_addr(state_dir, daemon)
        job_a = svc.submit(addr, RenderRequest(**SPEC_A, **FARM), priority=5,
                           owner="smoke", max_attempts=3)["job_id"]
        job_b = svc.submit(addr, RenderRequest(**SPEC_B, **FARM), priority=1,
                           owner="smoke", max_attempts=3)["job_id"]
        print(f"submitted {job_a} (priority 5) and {job_b} (priority 1) to {addr}")

        deadline = time.time() + 120.0
        killed_at = None
        while time.time() < deadline:
            status = svc.job_status(addr, job_a)
            if status["state"] == "done":
                return fail("job finished before the kill; enlarge SPEC_A")
            if status["state"] == "running" and status["tasks_done"] >= 2:
                killed_at = status["tasks_done"]
                break
            time.sleep(0.05)
        if killed_at is None:
            daemon.kill()
            return fail(f"{job_a} never got mid-flight within the deadline")
        old_pid = json.loads((state_dir / "service.json").read_text())["pid"]
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30.0)
        print(f"SIGKILL'd the daemon with {killed_at} tasks of {job_a} spooled")

        # A fresh daemon must refuse the stale state dir without --resume.
        refused = start_daemon(state_dir, resume=False)
        refused.wait(timeout=30.0)
        if refused.returncode == 0:
            return fail("daemon accepted a stale state dir without --resume")
        refused.stdout.read()

        # -- phase 2: resume and finish both jobs ----------------------------
        daemon = start_daemon(state_dir, resume=True)
        try:
            addr = control_addr(state_dir, daemon, not_pid=old_pid)
            done = svc.wait(addr, [job_a, job_b], timeout=240.0)
        finally:
            daemon.terminate()
            daemon.wait(timeout=30.0)
            daemon.stdout.read()

        for job_id in (job_a, job_b):
            if done[job_id]["state"] != "done":
                return fail(f"{job_id} ended {done[job_id]['state']} "
                            f"({done[job_id]['detail']}) after resume")
        resumed = done[job_a]["n_from_checkpoint"]
        if resumed < killed_at:
            return fail(f"{job_a} resumed only {resumed} tasks from the "
                        f"checkpoint spool; {killed_at} were spooled")
        print(f"both jobs done after --resume; {job_a} reused "
              f"{resumed}/{done[job_a]['n_tasks']} spooled tasks")

        # -- verification ----------------------------------------------------
        if not np.array_equal(job_frames(state_dir, job_a), ref_a):
            return fail(f"{job_a} frames differ from the crash-free reference")
        if not np.array_equal(job_frames(state_dir, job_b), ref_b):
            return fail(f"{job_b} frames differ from the crash-free reference")

        for job_id in (job_a, job_b):
            problem = check_job_trace(state_dir, job_id)
            if problem:
                return fail(problem)
        try:
            validate_events(read_events(state_dir / "service.events.jsonl"))
        except SchemaError as exc:
            return fail(f"service telemetry schema drift: {exc}")

        trace_dir = Path(tmp) / "traces"
        trace_dir.mkdir()
        events = read_events(state_dir / "jobs" / job_a / "events.jsonl")
        run_id = next((e.get("run") for e in events if e.get("run")), "")
        write_chrome_trace(events, trace_dir / "service.trace.json",
                           run_id=str(run_id or ""))
        lint = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "trace_lint.py"),
             str(trace_dir)],
            capture_output=True, text=True,
        )
        if lint.returncode != 0:
            return fail(f"trace lint failed:\n{lint.stdout}{lint.stderr}")

    print("OK: kill -9 + --resume completed every job bit-identically")
    print("  event logs schema-valid, 0 orphan spans, Chrome trace lints clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
