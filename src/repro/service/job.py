"""Job: the render service's one durable record per job.

A job's whole state is one small dict, kept as ``jobs/<id>/job.json``
beside the job's spool and frames.  The service replaces that file
through :func:`repro.durable.atomic_write` at submit and at every state
transition, *before* it replies, runs or requeues anything, so ``kill -9``
at any instant leaves each job either in its previous state or in its
new one, never in a torn one.

Render progress never enters the record: a job's finished units live in
its spool directory as atomically renamed ``.npz`` files, and each file
is the one record that its unit is done.

:func:`load_jobs` is the restart: it reads every ``*/job.json``.  A job
saved as ``running`` was in flight when the process died; it comes back
``queued`` with ``recovered=True``, so a resumed service reruns it on its
spool — the farm loads every unit file there and renders only the rest,
so the crash costs at most the units that were in flight.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..durable import atomic_write

__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "load_jobs"]

#: The service job state machine: queued -> running -> done, with the
#: failure exits described in DESIGN §13.
JOB_STATES = ("queued", "running", "done", "dead-letter", "rejected", "cancelled")

#: States a job never leaves (a restart keeps them as-is).
TERMINAL_STATES = frozenset({"done", "dead-letter", "rejected", "cancelled"})


@dataclass
class Job:
    """One render job as the service tracks it and ``job.json`` holds it."""

    job_id: str
    spec: dict
    priority: int = 0
    owner: str = ""
    max_attempts: int = 3
    state: str = "queued"
    detail: str = ""
    submitted_at: float = 0.0
    finished_at: float | None = None
    attempts: list[dict] = field(default_factory=list)
    n_tasks: int = 0
    n_from_checkpoint: int = 0
    not_before: float = 0.0  # retry-backoff gate (wall clock)
    recovered: bool = False  # re-queued by a --resume restart

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    def to_dict(self) -> dict:
        """A JSON/wire-able snapshot."""
        return {**asdict(self), "n_attempts": self.n_attempts}

    def save(self, job_dir: str | Path) -> None:
        """Atomically replace ``job_dir/job.json`` with this job."""
        job_dir = Path(job_dir)
        job_dir.mkdir(parents=True, exist_ok=True)
        data = json.dumps(asdict(self), indent=1, sort_keys=True).encode()
        atomic_write(job_dir / "job.json", data)


def load_jobs(jobs_dir: str | Path) -> dict[str, Job]:
    """The job table a restarted service needs, from every ``*/job.json``.

    A ``running`` job comes back ``queued`` with ``recovered=True``; so
    does a queued job that already has attempts (interrupted between
    retries: it keeps its history but runs as soon as the resumed service
    gets to it).  Terminal jobs stay terminal.  A record that does not
    parse raises :class:`ValueError` naming the file: a job is never
    silently dropped.
    """
    jobs: dict[str, Job] = {}
    for path in sorted(Path(jobs_dir).glob("*/job.json")):
        try:
            job = Job(**json.loads(path.read_text(encoding="utf-8")))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: unreadable job record ({exc})") from exc
        job.recovered = job.state == "running" or (job.state == "queued" and bool(job.attempts))
        if job.recovered:
            job.not_before = 0.0
        if job.state == "running":
            job.state = "queued"
            job.detail = "recovered after service restart"
        jobs[job.job_id] = job
    return jobs
