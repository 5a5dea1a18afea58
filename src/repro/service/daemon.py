"""RenderService: the long-lived ``repro serve`` daemon.

The earlier engines render one request and exit.  The paper's farm was a
*service*: a master that outlived any single animation, accepting work
from many owners and surviving the workstations (and itself) going down.
This module is that master:

* a **control socket** speaking the RNW1 framing of :mod:`repro.net`
  (``JOB_SUBMIT`` / ``JOB_STATUS`` / ``JOB_CANCEL``, protocol minor 2) —
  clients submit a render spec and poll for completion;
* a **scheduler loop** that pops the most urgent admitted job and runs
  it through :func:`repro.api.render` on the ``farm`` engine with the
  static schedule's fixed unit list — on the process pool or over tcp —
  with the job's spool directory as its ``run_dir``: every completed unit
  lands there as an atomically renamed file, and that file is the only
  record that the unit is done (a job's ``tasks_done`` is a count of
  them, taken when a status snapshot is built);
* one **job record** per job: every transition atomically replaces
  ``jobs/<id>/job.json`` *before* the service acts on it, so ``kill -9``
  plus ``repro serve --resume`` reads the job table back from the job
  directories and reruns every in-flight job on its spool, which
  re-renders only the units missing there — the final frames are
  bit-identical to a crash-free run (the ``service-smoke`` CI drill
  asserts this);
* **retry with capped exponential backoff**: a failed attempt re-queues
  the job gated by ``not_before``; the *final* attempt degrades to the
  serial in-process executor (a collapsed worker pool can fail a pooled
  attempt, it should never dead-letter a job the master could render
  alone), and ``max_attempts`` exhausted parks the job in
  ``dead-letter`` with its full attempt history in its ``job.json``;
* **admission control**: the bounded :class:`~repro.service.queue.JobQueue`
  sheds the lowest-priority job, saved as ``rejected`` — never a silent
  drop.

Synchronous :meth:`RenderService.step` runs exactly one job (what the
tests drive); :meth:`RenderService.serve_forever` is the daemon loop.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path

import numpy as np

from ..durable import atomic_write
from ..net import protocol as wire
from ..telemetry import JsonlSink, RunFold, Telemetry
from .job import TERMINAL_STATES, Job, load_jobs
from .queue import JobQueue

__all__ = ["RenderService", "SPEC_FIELDS"]

#: RenderRequest fields a submitted job may set — the one allow-list, read
#: by the client to project a request and by :meth:`RenderService.submit`
#: to refuse everything else (the service, not the client, owns
#: engine/schedule/run_dir/telemetry).  Every entry is a field the farm
#: engine reads.
SPEC_FIELDS = (
    "workload",
    "n_frames",
    "width",
    "height",
    "grid_resolution",
    "mode",
    "n_workers",
    "executor",
    "transport",
    "segment_frames",
    "task_timeout",
)
#: What the service imposes on every job.
IMPOSED = {"engine": "farm", "schedule": "static"}


class RenderService:
    """A persistent multi-job render service over one state directory.

    Parameters
    ----------
    state_dir:
        Home of the service event log and one ``jobs/<id>/`` directory
        per job (``job.json``, checkpoint spool, per-job
        ``events.jsonl``, final ``frames.npz``).
    resume:
        Read every ``jobs/*/job.json`` back and re-admit every
        non-terminal job before serving.  ``False`` requires a state
        directory without ``jobs/`` — refusing to silently ignore earlier
        jobs is part of the crash-safety contract.
    queue_capacity:
        Admission bound; see :class:`~repro.service.queue.JobQueue`.
    n_workers / executor / transport:
        Farm defaults for jobs whose spec doesn't choose its own.
    retry_base / retry_cap:
        Capped exponential backoff between attempts, seconds.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        resume: bool = False,
        queue_capacity: int = 16,
        n_workers: int | None = 2,
        executor: str = "process",
        transport: str = "process",
        retry_base: float = 0.5,
        retry_cap: float = 30.0,
        status_port: int | None = None,
        verbose: bool = False,
    ):
        self.state_dir = Path(state_dir)
        self.host = host
        self.port = int(port)
        self.queue_capacity = int(queue_capacity)
        self.n_workers = n_workers
        self.executor = executor
        self.transport = transport
        self.retry_base = float(retry_base)
        self.retry_cap = float(retry_cap)
        self.status_port = status_port
        self.verbose = verbose

        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._status_server = None
        self._started_at = time.time()
        self.n_recovered = 0

        journal = self.state_dir / "ledger.wal"
        if journal.exists():
            raise FileExistsError(
                f"{journal} is the job journal of an older service, which this "
                "one does not read; point --state-dir at a fresh directory"
            )
        jobs_dir = self.state_dir / "jobs"
        if not resume and jobs_dir.exists():
            raise FileExistsError(
                f"{jobs_dir} already exists; pass resume=True "
                "(repro serve --resume) to continue its jobs, or point "
                "--state-dir at a fresh directory"
            )
        self.state_dir.mkdir(parents=True, exist_ok=True)

        self.jobs: dict[str, Job] = load_jobs(jobs_dir) if resume else {}
        self.queue = JobQueue(capacity=self.queue_capacity)
        for job in sorted(self.jobs.values(), key=lambda j: j.submitted_at):
            if job.state == "queued":
                self.queue.requeue(job)
                self.n_recovered += job.recovered

        self.telemetry = Telemetry(sinks=[JsonlSink(self.state_dir / "service.events.jsonl")])
        # The service's own black box: records everything this process
        # emits (including in-process farm masters run for jobs) and
        # dumps into the state dir on SIGTERM or an unhandled exception.
        from ..obs.flight import FlightRecorder
        from ..obs.metrics import StragglerDetector

        self.recorder = FlightRecorder("service", self.state_dir)
        # Streaming percentiles over everything the service's jobs emit,
        # served as Prometheus text at /metrics on the status endpoint.
        self.metrics = RunFold(detector=StragglerDetector()).bind(self.telemetry)
        self.telemetry.sinks.append(self.metrics)
        if self.n_recovered:
            self._log(f"resume: {len(self.jobs)} jobs read, {self.n_recovered} re-queued")

    # -- logging ---------------------------------------------------------------
    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[repro.serve] {msg}", flush=True)

    # -- id allocation ---------------------------------------------------------
    def _next_job_id(self) -> str:
        n = 0
        for job_id in self.jobs:
            tail = job_id.lstrip("j")
            if tail.isdigit():
                n = max(n, int(tail))
        return f"j{n + 1:04d}"

    # -- job records -------------------------------------------------------------
    def _job_dir(self, job: Job) -> Path:
        return self.state_dir / "jobs" / job.job_id

    def _set_state(self, job: Job, state: str, detail: str = "") -> None:
        """Apply a state transition and save the job before anything acts
        on it (lock held by caller)."""
        job.state = state
        job.detail = detail
        if state in TERMINAL_STATES:
            job.finished_at = time.time()
        job.save(self._job_dir(job))
        self.telemetry.event("job.state", job=job.job_id, state=state, detail=detail)
        self._log(f"{job.job_id}: {state}" + (f" ({detail})" if detail else ""))

    # -- submission / control --------------------------------------------------
    def submit(
        self,
        spec: dict,
        *,
        priority: int = 0,
        owner: str = "",
        max_attempts: int = 3,
    ) -> tuple[Job, Job | None]:
        """Admit one job; returns ``(job, shed)`` where ``shed`` is the
        job rejected by admission control (possibly the new job itself).
        A spec key outside :data:`SPEC_FIELDS` is a :class:`ValueError`:
        a job is never rendered without something its spec asked for."""
        unknown = sorted(set(spec) - set(SPEC_FIELDS))
        if unknown:
            raise ValueError(
                f"the render service does not honour {', '.join(unknown)}; "
                f"a job may set {', '.join(SPEC_FIELDS)}"
            )
        spec = dict(spec)
        n_frames = int(spec.get("n_frames", 8))
        with self._lock:
            job = Job(
                job_id=self._next_job_id(),
                spec=spec,
                priority=int(priority),
                owner=str(owner),
                max_attempts=max(1, int(max_attempts)),
                submitted_at=time.time(),
            )
            job.save(self._job_dir(job))
            self.jobs[job.job_id] = job
            self.telemetry.event(
                "job.submit",
                job=job.job_id,
                workload=str(spec.get("workload", "newton")),
                priority=job.priority,
                owner=job.owner,
                n_frames=n_frames,
            )
            shed = self.queue.push(job)
            if shed is not None:
                self._set_state(shed, "rejected", "shed by admission control (queue full)")
            return job, shed

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (running/terminal jobs raise ValueError)."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise ValueError(f"unknown job {job_id!r}")
            if job.state != "queued":
                raise ValueError(f"job {job_id} is {job.state}; only queued jobs cancel")
            self.queue.remove(job_id)
            self._set_state(job, "cancelled", "cancelled by request")
            return job

    # -- status surfaces -------------------------------------------------------
    def _spool(self, job: Job) -> Path:
        return self._job_dir(job) / "spool"

    def _view(self, job: Job) -> dict:
        """A job's wire form; ``tasks_done`` counts its spooled unit files."""
        return {**job.to_dict(), "tasks_done": len(list(self._spool(job).glob("task_*.npz")))}

    def snapshot(self) -> dict:
        """The ``/status`` JSON body: service summary plus the job table."""
        with self._lock:
            jobs = [self._view(j) for j in self.jobs.values()]
        counts: dict[str, int] = {}
        for j in jobs:
            counts[j["state"]] = counts.get(j["state"], 0) + 1
        return {
            "service": "repro.serve",
            "state_dir": str(self.state_dir),
            "addr": f"{self.host}:{self.port}",
            "uptime": round(time.time() - self._started_at, 3),
            "queue_capacity": self.queue_capacity,
            "n_jobs": len(jobs),
            "states": counts,
            "n_recovered": self.n_recovered,
            "jobs": sorted(jobs, key=lambda j: j["job_id"]),
        }

    def _jobs_snapshot(self) -> dict:
        snap = self.snapshot()
        return {"jobs": snap["jobs"], "states": snap["states"]}

    # -- the scheduler ---------------------------------------------------------
    def _build_request(self, job: Job, final_attempt: bool):
        from ..api import RenderRequest
        from ..runtime import AnimationSpec

        spec = dict(job.spec)
        workload = spec.pop("workload", "newton")
        if isinstance(workload, dict):
            workload = AnimationSpec(
                str(workload.get("factory", "")), dict(workload.get("kwargs") or {})
            )
        kwargs = {
            # the daemon's own farm defaults, for what the job left unset
            **{name: getattr(self, name) for name in ("n_workers", "executor", "transport")},
            **spec,
            **IMPOSED,
            "workload": workload,
            "run_dir": self._spool(job),
        }
        if final_attempt:
            # Last chance: never let a collapsed pool dead-letter a job
            # the master can render alone, deterministically.
            kwargs.update(executor="serial", transport="process", n_workers=1)
        return RenderRequest(**kwargs)

    def step(self, now: float | None = None) -> Job | None:
        """Run the most urgent runnable job to one attempt's conclusion.

        Returns the job (inspect ``job.state``) or ``None`` when nothing
        was runnable (empty queue, or every queued job inside its
        backoff window).
        """
        from ..api import render

        now = time.time() if now is None else now
        with self._lock:
            job = self.queue.pop(now=now)
            if job is None:
                return None
            attempt = job.n_attempts + 1
            final = attempt >= job.max_attempts
            self._set_state(job, "running", f"attempt {attempt}/{job.max_attempts}")
        job_dir = self._job_dir(job)
        # One event log per *attempt*: a killed attempt leaves a truncated
        # trace (its run span never closed), which would read as orphan
        # spans forever if appended to.  ``job.json`` keeps the attempt
        # history; the event log describes the attempt that produced the
        # frames on disk — always a complete, connected trace.
        (job_dir / "events.jsonl").unlink(missing_ok=True)
        tel = Telemetry(sinks=[JsonlSink(job_dir / "events.jsonl")])
        t0 = time.perf_counter()
        try:
            request = self._build_request(job, final_attempt=final)
            result = render(request, telemetry=tel)
            self._save_frames(job_dir, result.frames)
            if result.frames is not None:
                # frames.npz is on disk; recycle the pixel stack so the
                # daemon's resident set stays one job deep and the next
                # same-shaped job composites into the same memory.
                result.frames.release()
        except Exception as exc:  # noqa: BLE001 — any failure is one attempt
            duration = time.perf_counter() - t0
            tel.close()
            self._record_failure(job, attempt, duration, repr(exc), now=now)
            return job
        duration = time.perf_counter() - t0
        tel.close()
        with self._lock:
            self._record_attempt(job, attempt, "ok", duration)
            job.n_tasks = result.n_tasks
            job.n_from_checkpoint = result.n_from_checkpoint
            self._set_state(
                job, "done", f"{result.n_tasks} tasks, {result.n_from_checkpoint} from checkpoint"
            )
        return job

    def _record_attempt(
        self, job: Job, attempt: int, outcome: str, duration: float,
        error: str = "", backoff: float = 0.0,
    ) -> None:
        """One attempt's end, written to the job table and the service's
        event log; the transition that follows saves it (lock held by the
        caller)."""
        job.attempts.append(
            {"attempt": attempt, "outcome": outcome, "error": error,
             "duration": duration, "backoff": backoff}
        )
        self.telemetry.event(
            "job.attempt", job=job.job_id, attempt=attempt, outcome=outcome,
            duration=round(duration, 6), error=error,
        )

    def _record_failure(
        self, job: Job, attempt: int, duration: float, error: str, *, now: float
    ) -> None:
        with self._lock:
            retry = attempt < job.max_attempts
            backoff = min(self.retry_cap, self.retry_base * 2.0 ** (attempt - 1)) if retry else 0.0
            self._record_attempt(job, attempt, "error", duration, error, backoff)
            if retry:
                job.not_before = now + backoff
                retry_at = f"retry {attempt + 1}/{job.max_attempts} in {backoff:.2f}s"
                self._set_state(job, "queued", f"{retry_at}: {error}")
                self.queue.requeue(job)
            else:
                self._set_state(job, "dead-letter", f"{attempt} attempts exhausted: {error}")

    @staticmethod
    def _save_frames(job_dir: Path, frames) -> None:
        """Atomically write the finished frames next to the job's spool."""
        if frames is None:
            return
        frames = np.asarray(frames)
        atomic_write(job_dir / "frames.npz", lambda fh: np.savez_compressed(fh, frames=frames))

    # -- control socket --------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind the control socket (and status endpoint); returns the addr."""
        self.recorder.install()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        if self.status_port is not None:
            from ..obs import StatusServer

            self._status_server = StatusServer(
                self,
                port=int(self.status_port),
                routes={"/jobs": self._jobs_snapshot, "/metrics": self.metrics.route},
            )
            self._status_server.start()
        self._write_addr_file()
        self._log(f"control socket on {self.host}:{self.port}")
        return self.host, self.port

    def _write_addr_file(self) -> None:
        """Publish the bound addresses (atomic) so tools can find a daemon
        that picked its ports dynamically."""
        info = {
            "host": self.host,
            "port": self.port,
            "status_port": getattr(self._status_server, "port", None),
            "pid": os.getpid(),
        }
        atomic_write(self.state_dir / "service.json",
                     json.dumps(info, indent=1, sort_keys=True).encode())

    def _accept_loop(self) -> None:
        listener = self._listener  # stop() clears the attribute
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed by stop()
            threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="repro-serve-conn", daemon=True,
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                got = wire.recv_frame(conn)
                if got is None:
                    return
                msg_type, payload = got
                reply = self._handle(msg_type, payload)
                wire.send_frame(conn, wire.MSG_JOB_STATUS, reply)
        except (OSError, wire.ProtocolError):
            pass  # a client that hangs up or talks garbage ends its own call only
        finally:
            try:
                conn.close()
            except OSError:
                pass  # already closed by the peer

    def _handle(self, msg_type: int, payload) -> dict:
        service = {"addr": f"{self.host}:{self.port}", "queue_capacity": self.queue_capacity}
        name = wire.MSG_NAMES.get(msg_type, msg_type)
        try:
            if not isinstance(payload, dict):
                raise ValueError(f"{name} payload must be a map, not {type(payload).__name__}")
            if msg_type == wire.MSG_JOB_SUBMIT:
                spec = payload.get("spec")
                if not isinstance(spec, dict):
                    raise ValueError(f"{name} needs a spec map, got {type(spec).__name__}")
                job, shed = self.submit(
                    spec,
                    priority=int(payload.get("priority", 0)),
                    owner=str(payload.get("owner", "")),
                    max_attempts=int(payload.get("max_attempts", 3)),
                )
                if shed is job:
                    return {
                        "ok": False,
                        "error": "rejected: queue full of higher-priority work",
                        "job": self._view(job),
                        "service": service,
                    }
                return {"ok": True, "job": self._view(job), "service": service}
            if msg_type == wire.MSG_JOB_STATUS:
                job_id = payload.get("job")
                if job_id:
                    with self._lock:
                        job = self.jobs.get(str(job_id))
                    if job is None:
                        return {
                            "ok": False,
                            "error": f"unknown job {job_id!r}",
                            "service": service,
                        }
                    return {"ok": True, "job": self._view(job), "service": service}
                snap = self.snapshot()
                return {"ok": True, "jobs": snap["jobs"], "service": snap}
            if msg_type == wire.MSG_JOB_CANCEL:
                job = self.cancel(str(payload.get("job", "")))
                return {"ok": True, "job": self._view(job), "service": service}
            return {
                "ok": False,
                "error": f"unexpected message type {name!r}",
                "service": service,
            }
        except (ValueError, TypeError) as exc:
            return {"ok": False, "error": str(exc), "service": service}

    # -- lifecycle -------------------------------------------------------------
    def serve_forever(self, poll: float = 0.2) -> None:
        """The daemon loop: run jobs as they become runnable, until stop()."""
        while not self._stop.is_set():
            job = self.step()
            if job is None:
                self._stop.wait(poll)

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:  # close() alone does not wake a thread blocked in accept()
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # refused for a listening socket on some platforms
            self._listener.close()
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        if self._status_server is not None:
            self._status_server.stop()
            self._status_server = None
        self.telemetry.close()
        self.recorder.uninstall()

    def __enter__(self) -> "RenderService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
