"""JobLedger: the render service's crash-safe write-ahead log.

Every state transition the service makes — a job submitted, queued,
started, retried, finished, shed, cancelled — is appended to one on-disk
journal *before* the service acts on it.
``kill -9`` the daemon at any instant and a restart replays the journal
back into the exact job table the dead process held, minus at most the
single record that was mid-write.

Record framing
--------------
The journal is a text file of independently verifiable lines::

    <crc32:08x> <compact-json>\\n

The CRC covers the JSON bytes, so every record carries its own proof of
integrity — the same stance the farm's checkpoint spool takes with
atomically renamed ``.npz`` files, adapted to an append-only journal
where rename-per-record would cost a file per transition.  Appends are
``write + flush + fsync``: when :meth:`JobLedger.append` returns, the
record is durable.  Replay (:func:`replay_records`) drops any line whose
CRC or JSON fails — a torn tail from a mid-write crash loses only the
record being written, never an earlier one, and a flipped byte anywhere
invalidates exactly one record instead of poisoning the file.

Render progress never enters the journal: a job's finished units live
in its spool directory as atomically renamed ``.npz`` files, and each
file is the one record that its unit is done.  Journaling them too would
be a second copy of that fact, one that could disagree with the disk.
That keeps replay O(jobs) cheap and the torn-tail blast radius one
*transition*, not one *render*.

Fold semantics
--------------
:func:`fold_jobs` reduces a replayed record stream to the job table.  A
job whose last durable state is ``running`` was in flight when the
process died; the fold re-queues it (``recovered=True``) so a resumed
service reruns it on its spool — the farm loads every unit file there
and renders only the rest, so the crash costs at most the units that
were in flight.  Kinds the fold does not know (such as the per-unit
``task`` records older ledgers hold) are skipped.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobLedger",
    "replay_records",
    "fold_jobs",
]

#: The service job state machine: queued -> running -> done, with the
#: failure exits described in DESIGN §13.
JOB_STATES = ("queued", "running", "done", "dead-letter", "rejected", "cancelled")

#: States a job never leaves (replay keeps them as-is).
TERMINAL_STATES = frozenset({"done", "dead-letter", "rejected", "cancelled"})


@dataclass
class Job:
    """One render job as the service (and the ledger fold) tracks it."""

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
    recovered: bool = False  # re-queued by a --resume replay

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    def to_dict(self) -> dict:
        """A JSON/wire-able snapshot."""
        return {**asdict(self), "n_attempts": self.n_attempts}


class JobLedger:
    """Append-only, CRC-framed, fsync-durable journal of service records.

    Records are plain dicts with a ``kind`` key; the service uses
    ``submit`` / ``state`` / ``attempt`` (see :func:`fold_jobs`)
    but the framing is kind-agnostic.  One ledger instance owns the file
    handle for the life of the service; replay happens on a closed file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, kind: str, **fields) -> dict:
        """Durably append one record; returns it (with ``kind`` and ``t``)."""
        record = {"kind": kind, "t": time.time(), **fields}
        data = json.dumps(record, sort_keys=True, separators=(",", ":"))
        line = f"{zlib.crc32(data.encode('utf-8')):08x} {data}\n"
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JobLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_records(path: str | Path) -> tuple[list[dict], int]:
    """Read every intact record from a journal.

    Returns ``(records, n_dropped)`` where ``n_dropped`` counts lines
    that failed CRC or JSON validation (a torn tail from a crash, or a
    corrupted byte).  A missing file is an empty ledger, not an error.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    records: list[dict] = []
    dropped = 0
    with open(path, "rb") as fh:
        raw = fh.read()
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        head, _, data = line.partition(b" ")
        try:
            crc = int(head, 16)
        except ValueError:
            dropped += 1
            continue
        if len(head) != 8 or zlib.crc32(data) != crc:
            dropped += 1
            continue
        try:
            record = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            dropped += 1
            continue
        if isinstance(record, dict) and "kind" in record:
            records.append(record)
        else:
            dropped += 1
    return records, dropped


def fold_jobs(records: list[dict]) -> dict[str, Job]:
    """Reduce a record stream to the job table a restarted service needs.

    Record kinds:

    * ``submit`` — creates the job (spec, priority, owner, max_attempts);
    * ``state`` — a transition to one of :data:`JOB_STATES`;
    * ``attempt`` — one finished execution attempt (outcome, error, the
      backoff the service chose).

    Jobs whose last durable state is ``queued`` or ``running`` are
    returned as ``queued`` with ``recovered=True`` — the crash-restart
    contract: in-flight work continues, it is never dropped and never
    double-finished (terminal states stay terminal).
    """
    jobs: dict[str, Job] = {}
    for rec in records:
        kind = rec.get("kind")
        job_id = str(rec.get("job", ""))
        if kind == "submit":
            jobs[job_id] = Job(
                job_id=job_id,
                spec=dict(rec.get("spec") or {}),
                priority=int(rec.get("priority", 0)),
                owner=str(rec.get("owner", "")),
                max_attempts=max(1, int(rec.get("max_attempts", 3))),
                submitted_at=float(rec.get("t", 0.0)),
            )
            continue
        job = jobs.get(job_id)
        if job is None:
            continue  # transition for a job whose submit record was lost
        if kind == "state":
            state = str(rec.get("state", ""))
            if state not in JOB_STATES or job.state in TERMINAL_STATES:
                continue
            job.state = state
            job.detail = str(rec.get("detail", ""))
            if state in TERMINAL_STATES:
                job.finished_at = float(rec.get("t", 0.0))
            if state == "done":
                job.n_tasks = int(rec.get("n_tasks", job.n_tasks))
                job.n_from_checkpoint = int(
                    rec.get("n_from_checkpoint", job.n_from_checkpoint)
                )
        elif kind == "attempt":
            job.attempts.append(
                {
                    "attempt": int(rec.get("attempt", len(job.attempts) + 1)),
                    "outcome": str(rec.get("outcome", "error")),
                    "error": str(rec.get("error", "")),
                    "duration": float(rec.get("duration", 0.0)),
                    "backoff": float(rec.get("backoff", 0.0)),
                }
            )
    for job in jobs.values():
        if job.state == "running":
            job.state = "queued"
            job.recovered = True
            job.detail = "recovered after service restart"
        elif job.state == "queued" and job.attempts:
            # Interrupted between retries: keep the backoff history but
            # run as soon as the resumed service gets to it.
            job.recovered = True
    return jobs
