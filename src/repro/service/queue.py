"""JobQueue: the service's bounded admission queue.

A render service on a network of workstations is a shared resource: many
owners submit, one farm renders.  The queue is where the service says
*no* — a bounded buffer with priority-aware shedding instead of the two
failure modes an unbounded queue invites (memory growth without limit,
and a latecomer's high-priority job starving behind a wall of bulk work).

Policy:

* higher ``priority`` number = more urgent; FIFO within a priority level
  (two equal-priority jobs render in submission order);
* :meth:`JobQueue.push` over capacity **sheds the least defensible
  entry**: the lowest-priority job in the queue, newest first among ties
  — and if the incoming job *is* the least defensible, it is shed
  itself.  The shed job is returned so the service can save it as
  ``rejected``; admission control is an auditable decision, never a
  silent drop.

The queue is a plain data structure — no locks.  The service serializes
access under its own mutex, which also covers the ``job.json`` save
that must pair with every shed.
"""

from __future__ import annotations

from .job import Job

__all__ = ["JobQueue"]


class JobQueue:
    """Bounded priority queue of :class:`~repro.service.job.Job`."""

    def __init__(self, capacity: int = 16):
        self.capacity = max(1, int(capacity))
        self._items: list[Job] = []  # insertion order == submission order

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def push(self, job: Job) -> Job | None:
        """Admit ``job``; returns the job shed to make room (possibly
        ``job`` itself), or ``None`` when the queue had capacity."""
        self._items.append(job)
        if len(self._items) <= self.capacity:
            return None
        # Least defensible: lowest priority; newest among ties.  The
        # candidate just appended is the newest of all, so a full queue
        # of strictly higher-priority work sheds the candidate itself.
        victim = min(
            enumerate(self._items), key=lambda iv: (iv[1].priority, -iv[0])
        )
        self._items.pop(victim[0])
        return victim[1]

    def requeue(self, job: Job) -> None:
        """Admit without the capacity check — for retries and for the jobs
        a ``--resume`` restart re-admits.  A job that already survived
        admission control keeps its seat; shedding it on a retry (or on
        ``--resume``) would turn a transient failure into a rejection."""
        self._items.append(job)

    def pop(self, now: float | None = None) -> Job | None:
        """Remove and return the most urgent runnable job.

        ``now`` gates retry backoff: a job whose ``not_before`` is still
        in the future is skipped (it stays queued), so one crashing job
        in its backoff window never blocks the rest of the queue.
        """
        best_i = -1
        for i, job in enumerate(self._items):
            if now is not None and job.not_before > now:
                continue
            if best_i < 0 or job.priority > self._items[best_i].priority:
                best_i = i
        if best_i < 0:
            return None
        return self._items.pop(best_i)

    def remove(self, job_id: str) -> Job | None:
        """Remove a queued job by id (cancellation); None if not queued."""
        for i, job in enumerate(self._items):
            if job.job_id == job_id:
                return self._items.pop(i)
        return None
