"""Tests for the persistent render service: job records, queue, daemon, RPC.

The crash-safety contract under test, end to end:

* a job's ``job.json`` is replaced atomically and durably, so a restart
  reads each job's last saved state (a stray temp file from a kill
  between write and rename is ignored, an unparsable record is an
  error naming the file);
* a service killed mid-job and restarted with ``resume=True`` finishes
  the job from its last spooled task, bit-identical to a crash-free run,
  and never re-renders a spooled task;
* failures retry with capped backoff and park in ``dead-letter``;
* admission control sheds the lowest-priority job with an explicit
  ``rejected`` record, never silently.
"""

import dataclasses
import json
import os
import re
import shutil
import stat
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import durable
from repro.api import RenderRequest
from repro.net import protocol as wire
from repro.obs import fetch_status
from repro.service import Job, JobQueue, RenderService, ServiceError, load_jobs
from repro.service import client as svc_client
from repro.telemetry import read_events, validate_events

#: Small enough to render a job in ~a second, big enough for real tasks.
SPEC = {"workload": "newton", "n_frames": 4, "width": 48, "height": 36,
        "grid_resolution": 16}
#: The client-side submit surface takes the unified RenderRequest.
REQ = RenderRequest(**SPEC)


def make_service(state_dir, **kwargs) -> RenderService:
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("executor", "thread")
    return RenderService(state_dir, **kwargs)


# -- job records ------------------------------------------------------------------
def test_fold_requeues_in_flight_jobs(tmp_path):
    jobs_dir = tmp_path / "jobs"
    Job("j0001", SPEC, state="running", detail="attempt 1/3").save(jobs_dir / "j0001")
    Job("j0002", SPEC, priority=1, state="cancelled").save(jobs_dir / "j0002")
    between_retries = Job("j0003", SPEC, not_before=1e12, attempts=[
        {"attempt": 1, "outcome": "error", "error": "boom", "duration": 0.1, "backoff": 2.0}
    ])
    between_retries.save(jobs_dir / "j0003")
    jobs = load_jobs(jobs_dir)
    assert jobs["j0001"].state == "queued"          # back in the queue
    assert jobs["j0001"].recovered
    assert jobs["j0002"].state == "cancelled"       # terminal stays terminal
    assert not jobs["j0002"].recovered
    # Interrupted between retries: history kept, runs at once.
    assert jobs["j0003"].recovered and jobs["j0003"].not_before == 0.0
    assert jobs["j0003"].attempts == between_retries.attempts


def test_job_record_round_trips(tmp_path):
    job = Job("j0007", SPEC, priority=2, owner="ada", state="done", n_tasks=4,
              finished_at=5.0, attempts=[{"attempt": 1, "outcome": "ok"}])
    job.save(tmp_path / "j0007")
    assert load_jobs(tmp_path)["j0007"] == job
    assert json.loads((tmp_path / "j0007" / "job.json").read_text())["owner"] == "ada"


def test_atomic_write_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """A renamed file is durable only once its directory entry is."""
    calls = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        fsync(fd)

    def logged_replace(src, dst):
        calls.append("replace")
        replace(src, dst)

    monkeypatch.setattr(durable.os, "fsync", logged_fsync)
    monkeypatch.setattr(durable.os, "replace", logged_replace)
    durable.atomic_write(tmp_path / "x.json", b"{}")
    assert calls == ["file", "replace", "dir"]
    assert (tmp_path / "x.json").read_bytes() == b"{}"


def test_failed_atomic_write_keeps_the_previous_file(tmp_path):
    """A writer that dies mid-write (some bytes already out) leaves the
    earlier file intact and no temp file beside it."""
    path = tmp_path / "task_0000.npz"
    durable.atomic_write(path, b"earlier content")

    def dies_mid_write(fh):
        fh.write(b"half of the new")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        durable.atomic_write(path, dies_mid_write)
    assert path.read_bytes() == b"earlier content"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_restart_ignores_a_temp_file_left_between_write_and_rename(tmp_path):
    """``kill -9`` after a new ``job.json`` was written but before it was
    renamed into place: the restart reads the previous state."""
    svc = make_service(tmp_path / "svc")
    job, _ = svc.submit(SPEC)
    svc.stop()
    job_dir = tmp_path / "svc" / "jobs" / job.job_id
    running = dataclasses.replace(job, state="running", detail="attempt 1/3")
    torn = json.dumps(dataclasses.asdict(running)).encode()
    (job_dir / f".job.json.{os.getpid()}.0badf00d.tmp").write_bytes(torn)
    (job_dir / f".job.json.{os.getpid()}.5eed5eed.tmp").write_bytes(torn[:40])
    resumed = make_service(tmp_path / "svc", resume=True)
    try:
        back = resumed.jobs[job.job_id]
        assert back.state == "queued" and not back.recovered
        assert back.detail == "" and resumed.n_recovered == 0
        # The id counter continues from the highest id on disk.
        assert resumed.submit(SPEC)[0].job_id == "j0002"
    finally:
        resumed.stop()


def test_unparsable_job_record_fails_the_restart_naming_the_file(tmp_path):
    svc = make_service(tmp_path / "svc")
    job, _ = svc.submit(SPEC)
    svc.stop()
    record = tmp_path / "svc" / "jobs" / job.job_id / "job.json"
    record.write_bytes(record.read_bytes()[:-7])
    with pytest.raises(ValueError, match=re.escape(f"{record}: unreadable job record")):
        make_service(tmp_path / "svc", resume=True)


@pytest.mark.parametrize("resume", [False, True])
def test_older_services_journal_is_refused(tmp_path, resume):
    state = tmp_path / "svc"
    state.mkdir()
    (state / "ledger.wal").write_text("")
    with pytest.raises(FileExistsError, match="ledger.wal is the job journal of an older"):
        make_service(state, resume=resume)


# -- queue ----------------------------------------------------------------------
def _job(job_id, priority=0, submitted_at=0.0, not_before=0.0):
    return Job(job_id=job_id, spec={}, priority=priority,
               submitted_at=submitted_at, not_before=not_before)


def test_queue_pops_by_priority_then_fifo():
    q = JobQueue(capacity=8)
    for jid, prio in (("a", 0), ("b", 5), ("c", 5), ("d", 1)):
        assert q.push(_job(jid, prio)) is None
    assert [q.pop().job_id for _ in range(4)] == ["b", "c", "d", "a"]
    assert q.pop() is None


def test_queue_sheds_lowest_priority_newest_first():
    q = JobQueue(capacity=2)
    q.push(_job("old-low", 1))
    q.push(_job("high", 5))
    shed = q.push(_job("new-low", 1))
    assert shed.job_id == "new-low"  # newest among the lowest-priority ties
    shed = q.push(_job("urgent", 9))
    assert shed.job_id == "old-low"
    assert sorted(j.job_id for j in q) == ["high", "urgent"]


def test_queue_backoff_gate_skips_but_keeps_jobs():
    q = JobQueue(capacity=4)
    q.push(_job("later", priority=9, not_before=100.0))
    q.push(_job("now", priority=0))
    assert q.pop(now=50.0).job_id == "now"     # backoff never blocks the queue
    assert q.pop(now=50.0) is None
    assert q.pop(now=150.0).job_id == "later"  # gate expired


def test_queue_requeue_bypasses_capacity():
    q = JobQueue(capacity=1)
    q.push(_job("a", 5))
    q.requeue(_job("retry", 0))
    assert len(q) == 2  # an admitted job keeps its seat on retry


# -- service: happy path over the control socket --------------------------------
def test_service_renders_submitted_job_over_rpc(tmp_path):
    svc = make_service(tmp_path / "svc")
    host, port = svc.start()
    addr = f"{host}:{port}"
    try:
        job = svc_client.submit(addr, REQ, priority=3, owner="ada")
        assert job["state"] == "queued" and job["job_id"] == "j0001"
        done = svc.step()
        assert done.state == "done"
        final = svc_client.job_status(addr, "j0001")
        assert final["state"] == "done"
        assert final["n_tasks"] > 0 and final["tasks_done"] == final["n_tasks"]
        snap = svc_client.list_jobs(addr)
        assert snap["states"] == {"done": 1}
    finally:
        accept_thread = svc._accept_thread
        svc.stop()
    # stop() wakes the blocked accept() instead of waiting out its join.
    assert not accept_thread.is_alive()
    with np.load(tmp_path / "svc" / "jobs" / "j0001" / "frames.npz") as npz:
        frames = npz["frames"]
    assert frames.shape[0] == SPEC["n_frames"]
    # The service's own narration obeys the pinned telemetry schema.
    events = read_events(tmp_path / "svc" / "service.events.jsonl")
    validate_events(events)
    names = {e["name"] for e in events}
    assert {"job.submit", "job.state", "job.attempt"} <= names


def test_service_control_errors(tmp_path):
    svc = make_service(tmp_path / "svc")
    host, port = svc.start()
    addr = f"{host}:{port}"
    try:
        with pytest.raises(ServiceError, match="unknown job"):
            svc_client.job_status(addr, "j9999")
        job = svc_client.submit(addr, REQ)
        cancelled = svc_client.cancel(addr, job["job_id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError, match="only queued"):
            svc_client.cancel(addr, job["job_id"])
        assert svc.step() is None  # cancelled job must not run
    finally:
        svc.stop()


def test_submit_spec_dict_is_removed():
    # PR 7 deprecated the spec-dict form for one release; it is gone now,
    # and refusing it happens before any socket I/O.
    with pytest.raises(TypeError, match="RenderRequest"):
        svc_client.submit("127.0.0.1:1", SPEC, priority=2)


def test_submit_rejects_unnamed_workloads(tmp_path):
    # The daemon rebuilds the scene from a recipe, so a live Animation (or
    # any request whose workload isn't a name) must be refused up front.
    with pytest.raises(TypeError, match="workload"):
        svc_client.submit("127.0.0.1:1", RenderRequest(workload=object()))


def test_submit_refuses_what_the_service_will_not_honour():
    """A job is never accepted and then rendered without something its
    request asked for: fields outside the allow-list must be at their
    defaults (or at what the service imposes anyway)."""
    from dataclasses import replace

    with pytest.raises(ServiceError, match="does not honour shadow_coherence"):
        svc_client.submit("127.0.0.1:1", replace(REQ, shadow_coherence=True))
    with pytest.raises(ServiceError, match="max_attempts, tile_px"):
        svc_client.submit("127.0.0.1:1", replace(REQ, tile_px=8, max_attempts=5))
    spec = svc_client._spec_from_request(
        replace(REQ, engine="farm", schedule="static", n_workers=3, task_timeout=9.0)
    )
    assert spec == {**SPEC, "n_workers": 3, "task_timeout": 9.0}
    assert set(spec) <= set(svc_client.SPEC_FIELDS)


@pytest.mark.parametrize("payload, error", [
    ([1, 2], "job_submit payload must be a map, not list"),
    ("x", "job_submit payload must be a map, not str"),
    ({"priority": 1}, "job_submit needs a spec map, got NoneType"),
    ({"spec": "newton"}, "job_submit needs a spec map, got str"),
    ({"spec": {**SPEC, "samples_per_axis": 2}}, "does not honour samples_per_axis"),
], ids=["list", "str", "no-spec", "spec-not-map", "unknown-spec-key"])
def test_malformed_control_frames_answer_not_ok(tmp_path, payload, error):
    """A raw-wire frame the client helpers would never send gets an
    ``ok: False`` reply naming the problem, and creates no job."""
    svc = make_service(tmp_path / "svc")
    host, port = svc.start()
    try:
        reply = svc_client._rpc(f"{host}:{port}", wire.MSG_JOB_SUBMIT, payload)
        assert reply["ok"] is False and error in reply["error"]
        assert svc.jobs == {} and not (tmp_path / "svc" / "jobs").exists()
        # The connection thread survived: the service still answers.
        assert svc_client.list_jobs(f"{host}:{port}")["n_jobs"] == 0
    finally:
        svc.stop()


def test_service_refuses_stale_state_dir_without_resume(tmp_path):
    svc = make_service(tmp_path / "svc")
    svc.submit(SPEC)
    svc.stop()
    with pytest.raises(FileExistsError, match="--resume"):
        make_service(tmp_path / "svc")


# -- admission control -----------------------------------------------------------
def test_admission_control_sheds_with_explicit_rejection(tmp_path):
    svc = make_service(tmp_path / "svc", queue_capacity=2)
    host, port = svc.start()
    addr = f"{host}:{port}"
    try:
        svc_client.submit(addr, REQ, priority=5)
        svc_client.submit(addr, REQ, priority=5)
        # Queue full of higher-priority work: the newcomer itself is shed.
        with pytest.raises(ServiceError, match="rejected"):
            svc_client.submit(addr, REQ, priority=1)
        # A more urgent newcomer instead sheds a queued lower-priority job.
        job, shed = svc.submit(SPEC, priority=9)
        assert shed is not None and shed is not job
        assert shed.priority == 5 and shed.state == "rejected"
    finally:
        svc.stop()
    jobs = load_jobs(tmp_path / "svc" / "jobs")
    rejected = [j for j in jobs.values() if j.state == "rejected"]
    assert len(rejected) == 2  # both sheds saved, never silent
    for job in rejected:
        assert "admission control" in job.detail


# -- retry / dead-letter ---------------------------------------------------------
def test_failed_job_retries_with_backoff_then_dead_letters(tmp_path):
    svc = make_service(tmp_path / "svc", retry_base=10.0, retry_cap=15.0)
    try:
        job, shed = svc.submit({"workload": "no-such-scene"}, max_attempts=2)
        assert shed is None
        t0 = time.time()
        out = svc.step()
        assert out.state == "queued"  # attempt 1 failed, re-queued
        assert out.n_attempts == 1
        assert out.attempts[0]["outcome"] == "error"
        assert out.attempts[0]["backoff"] == pytest.approx(10.0)
        assert out.not_before >= t0 + 10.0
        assert svc.step() is None  # inside the backoff window: not runnable
        out = svc.step(now=time.time() + 60.0)  # window over: final attempt
        assert out.state == "dead-letter"
        assert out.n_attempts == 2
        assert "exhausted" in out.detail
    finally:
        svc.stop()
    # The verdict (and the full attempt history) is durable.
    jobs = load_jobs(tmp_path / "svc" / "jobs")
    assert jobs[job.job_id].state == "dead-letter"
    assert [a["outcome"] for a in jobs[job.job_id].attempts] == ["error", "error"]


def test_backoff_is_capped_exponential(tmp_path):
    svc = make_service(tmp_path / "svc", retry_base=1.0, retry_cap=3.0)
    try:
        job, _ = svc.submit({"workload": "no-such-scene"}, max_attempts=4)
        delays = []
        now = time.time()
        for i in range(1, 5):
            # Each step far past the previous attempt's backoff window.
            out = svc.step(now=now + i * 1e6)
            if out.state == "queued":
                delays.append(out.attempts[-1]["backoff"])
        assert delays == [1.0, 2.0, 3.0]  # doubled, then capped
        assert out.state == "dead-letter"
    finally:
        svc.stop()


# -- crash + resume ---------------------------------------------------------------
def test_resume_continues_mid_job_bit_identically(tmp_path):
    """The headline drill, in-process: a service dies mid-job (emulated by
    a ``running`` job.json + partial spool), and ``resume=True`` finishes from the last
    spooled task — never re-rendering finished work, frames bit-identical
    to the crash-free run."""
    _crash_drill(tmp_path)


def test_tcp_job_finishes_first_attempt_and_resumes(tmp_path):
    """A service on the socket transport renders jobs over its daemons at
    the first attempt (not through the last-chance serial fallback), and
    the same crash drill resumes such a job bit-identically."""
    ref_job = _crash_drill(tmp_path, transport="tcp")
    assert [a["outcome"] for a in ref_job.attempts] == ["ok"]
    events = read_events(tmp_path / "ref" / "jobs" / ref_job.job_id / "events.jsonl")
    validate_events(events)
    assert sum(e["name"] == "net.worker.join" for e in events) == 2  # n_workers lanes


def _crash_drill(tmp_path, **service_kw):
    # Crash-free reference.
    ref = make_service(tmp_path / "ref", **service_kw)
    ref.submit(SPEC)
    ref_job = ref.step()
    assert ref_job.state == "done"
    ref.stop()
    with np.load(tmp_path / "ref" / "jobs" / "j0001" / "frames.npz") as npz:
        ref_frames = npz["frames"]
    ref_spool = tmp_path / "ref" / "jobs" / "j0001" / "spool"
    spooled = sorted(p.name for p in ref_spool.glob("task_*.npz"))
    assert len(spooled) >= 4

    # The "crashed" service: job saved as running, spool half-written.
    crash_dir = tmp_path / "crash"
    svc = make_service(crash_dir, **service_kw)
    job, _ = svc.submit(SPEC)
    svc.stop()
    done_subset = spooled[: len(spooled) // 2]
    job_dir = crash_dir / "jobs" / job.job_id
    dataclasses.replace(job, state="running", detail="attempt 1/3").save(job_dir)
    spool = job_dir / "spool"
    spool.mkdir(parents=True)
    shutil.copy(ref_spool / "manifest.json", spool / "manifest.json")
    for name in done_subset:
        shutil.copy(ref_spool / name, spool / name)

    # kill -9 happened here.  Restart with --resume.
    resumed = make_service(crash_dir, resume=True, **service_kw)
    try:
        assert resumed.n_recovered == 1
        job2 = resumed.jobs[job.job_id]
        assert job2.state == "queued" and job2.recovered
        # The job's progress is what its spool holds.
        assert resumed.snapshot()["jobs"][0]["tasks_done"] == len(done_subset)
        out = resumed.step()
        assert out.state == "done"
        # Exactly the pre-crash tasks came from the checkpoint spool.
        assert out.n_from_checkpoint == len(done_subset)
    finally:
        resumed.stop()
    with np.load(crash_dir / "jobs" / job.job_id / "frames.npz") as npz:
        np.testing.assert_array_equal(npz["frames"], ref_frames)
    return ref_job


def test_replayed_supersampled_job_dead_letters_without_rendering(tmp_path):
    """A job saved while the farm still supersampled can hold a spec with
    ``samples_per_axis: 2``.  Read back, that job fails visibly, naming
    the field, and is never rendered at one sample."""
    state = tmp_path / "svc"
    Job("j0001", {**SPEC, "samples_per_axis": 2}, max_attempts=2, state="running",
        detail="attempt 1/2").save(state / "jobs" / "j0001")
    svc = make_service(state, resume=True, retry_base=0.0, retry_cap=0.0)
    try:
        assert svc.jobs["j0001"].state == "queued"
        now = time.time()
        while (job := svc.step(now=now)) is not None and job.state == "queued":
            now += 1.0
        assert job.state == "dead-letter"
        assert "samples_per_axis" in job.detail
        assert all("samples_per_axis" in a["error"] for a in job.attempts)
    finally:
        svc.stop()
    jobs = load_jobs(state / "jobs")
    assert jobs["j0001"].state == "dead-letter"
    assert not list((state / "jobs").rglob("*.npz"))  # no frames, no spooled unit


def test_running_jobs_tasks_done_counts_its_spool(tmp_path, monkeypatch):
    """While a job runs, its ``tasks_done`` is the number of unit files in
    its spool — read after every save, through the status snapshot."""
    from repro.runtime import local

    svc = make_service(tmp_path / "svc")
    job, _ = svc.submit(SPEC)
    spool = tmp_path / "svc" / "jobs" / job.job_id / "spool"
    seen = []
    save = local._save_task_result

    def save_and_look(path, result):
        save(path, result)
        (view,) = svc.snapshot()["jobs"]
        seen.append((view["state"], view["tasks_done"], len(list(spool.glob("task_*.npz")))))

    monkeypatch.setattr(local, "_save_task_result", save_and_look)
    try:
        assert svc.step().state == "done"
    finally:
        svc.stop()
    assert len(seen) == job.n_tasks > 1
    assert seen == [("running", n, n) for n in range(1, job.n_tasks + 1)]


# -- live surface -----------------------------------------------------------------
def test_status_server_jobs_route_and_json_404(tmp_path):
    svc = make_service(tmp_path / "svc", status_port=0)
    svc.start()
    status_addr = f"127.0.0.1:{svc._status_server.port}"
    try:
        svc.submit(SPEC, priority=7, owner="ada")
        snap = fetch_status(status_addr, path="/jobs")
        assert snap["states"] == {"queued": 1}
        assert snap["jobs"][0]["owner"] == "ada"
        full = fetch_status(status_addr)  # default /status
        assert full["service"] == "repro.serve"
        assert full["queue_capacity"] == svc.queue_capacity
        # Unknown paths answer JSON, not stdlib HTML error pages.
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://{status_addr}/nope")
        assert err.value.code == 404
        assert err.value.headers["Content-Type"] == "application/json"
        body = json.loads(err.value.read().decode())
        assert "/jobs" in body["paths"] and "unknown path" in body["error"]
    finally:
        svc.stop()
