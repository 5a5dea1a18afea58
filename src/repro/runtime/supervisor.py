"""Supervised task scheduling for the real render farm.

``ProcessPoolExecutor.map`` trusts every worker with its life: one crash
aborts the render, one hang stalls it forever.  On a network of
workstations that is the common case, not the exception — so the farm
submits tasks individually through this supervisor, which:

* enforces a **per-task deadline** — the farm's one rule,
  :meth:`~repro.runtime.options.RecoveryOptions.deadline`: a fixed one,
  or 3x the slowest completion so far plus a margin;
* detects **worker crashes** (a broken pool) — the pool is rebuilt and
  every in-flight task re-queued;
* detects **hangs** — a task past its deadline is declared lost and
  re-submitted; the abandoned future is kept so a *merely slow* worker's
  late completion is still accepted (or ignored as a duplicate once its
  replacement finished first); if every worker slot is presumed hung the
  pool is killed and rebuilt;
* **validates outputs** before accepting them (``validate`` callback —
  the farm checks shape and finiteness, catching corrupted blocks);
* re-queues failures with **capped retries and exponential backoff**,
  and on retry exhaustion **degrades to in-process serial execution** of
  the task instead of aborting the whole render;
* records every attempt (:class:`TaskAttempt`) and surfaces robustness
  counters in the :class:`SupervisorOutcome`.

The supervisor is renderer-agnostic: ``fn`` is any picklable module-level
function of one task argument, so it is reusable for any master/worker
decomposition (and directly testable with toy tasks).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

from .faults import FaultPlan
from .options import RecoveryCounts, RecoveryOptions, RecoveryView

__all__ = [
    "TaskSupervisor",
    "TaskAttempt",
    "SupervisorOutcome",
    "SupervisorError",
    "task_context",
]

#: Ceiling, in seconds, on the exponential backoff before a retry.
BACKOFF_CAP = 1.0
#: Shortest wait between two deadline sweeps, seconds.
POLL_INTERVAL = 0.05

# Which (task_index, attempt) this worker is currently executing.  Task
# functions that emit telemetry read it via task_context(); thread-local so
# the thread executor's concurrent workers don't trample each other.
_TASK_CONTEXT = threading.local()


def task_context() -> tuple[int, int]:
    """(task_index, attempt) of the task running in the calling worker."""
    return (
        getattr(_TASK_CONTEXT, "index", -1),
        getattr(_TASK_CONTEXT, "attempt", 0),
    )


class SupervisorError(RuntimeError):
    """A task could not be completed despite retries and degradation."""


@dataclass(frozen=True)
class TaskAttempt:
    """One dispatch of one task and how it ended."""

    task_index: int
    attempt: int
    outcome: str  # ok | late-ok | degraded-ok | duplicate | timeout | crash | error | invalid
    duration: float
    error: str = ""
    started: float = 0.0  # seconds after supervisor start this attempt began


@dataclass
class SupervisorOutcome(RecoveryView):
    """Results plus the robustness story of how they were obtained."""

    results: list
    attempts: list[TaskAttempt] = field(default_factory=list)
    recovery: RecoveryCounts = field(default_factory=RecoveryCounts)
    n_duplicates: int = 0
    n_pool_rebuilds: int = 0
    wall_time: float = 0.0


def _run_task(payload):
    """Worker entry point: consult the fault plan, compute, consult again."""
    fn, task, task_index, attempt, plan, disruptive_ok = payload
    _TASK_CONTEXT.index = task_index
    _TASK_CONTEXT.attempt = attempt
    if plan is not None:
        plan.apply_before(task_index, attempt, disruptive_ok)
    result = fn(task)
    if plan is not None:
        result = plan.apply_after(task_index, attempt, result)
    return result


class TaskSupervisor:
    """Run ``fn`` over ``tasks`` with crash/hang recovery.

    Parameters
    ----------
    fn:
        Picklable function of one task argument.
    tasks:
        Sequence of task arguments; results keep this order.
    executor:
        ``"process"`` (sandboxed, full fault coverage), ``"thread"``
        (crash/hang faults are not injected — they would take down the
        master), or ``"serial"`` (in-process reference path).
    validate:
        ``validate(task, result) -> bool``; a False result is treated as
        a failure and retried.
    recovery:
        The :class:`~repro.runtime.options.RecoveryOptions`: pool
        attempts per task before degradation, and the deadline rule.
    degrade_serial:
        On retry exhaustion, run the task in-process instead of failing.
    on_result:
        ``on_result(task_index, result)`` called once per accepted
        result, in completion order.
    feed:
        Optional ``feed() -> list | None`` called whenever the pending
        queue is empty and worker slots are free: a list of new task
        arguments extends ``tasks`` (indices keep growing), ``[]`` means
        "nothing right now, ask again after the next completion", and
        ``None`` means the source is exhausted.  This is how a
        scheduling policy drives the supervisor demand-style instead of
        handing it a static upfront list.
    """

    def __init__(
        self,
        fn,
        tasks,
        *,
        executor: str = "process",
        n_workers: int = 2,
        initializer=None,
        initargs=(),
        validate=None,
        recovery: RecoveryOptions = RecoveryOptions(),
        backoff_base: float = 0.05,
        degrade_serial: bool = True,
        max_pool_rebuilds: int = 4,
        fault_plan: FaultPlan | None = None,
        on_result=None,
        feed=None,
    ):
        if executor not in ("process", "thread", "serial"):
            raise ValueError("executor must be 'process', 'thread' or 'serial'")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.fn = fn
        self.tasks = list(tasks)
        self.executor = executor
        self.n_workers = n_workers
        self.initializer = initializer
        self.initargs = initargs
        self.validate = validate
        self.recovery = recovery
        self.backoff_base = backoff_base
        self.degrade_serial = degrade_serial
        self.max_pool_rebuilds = max_pool_rebuilds
        self.fault_plan = fault_plan
        self.on_result = on_result
        self.feed = feed
        self._feed_done = feed is None

        self._pool = None
        self._inflight: dict = {}  # Future -> (task_index, attempt, submitted_at)
        self._late: dict = {}  # abandoned-but-maybe-finishing futures
        self._durations: list[float] = []
        self._results: dict[int, object] = {}
        self._pending: deque = deque()
        self._t0 = 0.0
        self._out = SupervisorOutcome(results=[None] * len(self.tasks))

    # -- public entry ----------------------------------------------------------
    def run(self) -> SupervisorOutcome:
        t0 = self._t0 = time.monotonic()
        out = self._out
        self._pending = deque((i, 0, 0.0) for i in range(len(self.tasks)))
        try:
            if self.executor == "serial":
                self._run_serial()
            else:
                self._run_pooled()
        finally:
            self._close_pool()
        out.results = [self._results[i] for i in range(len(self.tasks))]
        out.wall_time = time.monotonic() - t0
        return out

    # -- feed plumbing -----------------------------------------------------------
    def _pull_feed(self) -> int:
        """Ask the feed for more tasks; returns how many were added."""
        if self._feed_done:
            return 0
        new = self.feed()
        if new is None:
            self._feed_done = True
            return 0
        added = 0
        for task in new:
            idx = len(self.tasks)
            self.tasks.append(task)
            self._pending.append((idx, 0, 0.0))
            added += 1
        return added

    # -- serial reference path -------------------------------------------------
    def _run_serial(self) -> None:
        pending = self._pending
        while pending or not self._feed_done:
            if not pending:
                if self._pull_feed() == 0:
                    if self._feed_done:
                        break
                    raise SupervisorError(
                        "supervisor stalled: feed returned no work with none in flight"
                    )
                continue
            idx, attempt, not_before = pending.popleft()
            if idx in self._results:
                continue
            if attempt >= self.recovery.max_attempts:
                self._degrade(idx, attempt)
                continue
            delay = not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            ok, result, err, dur = self._attempt_inline(idx, attempt)
            if ok:
                self._accept(idx, attempt, result, dur, "ok")
            else:
                self._record(idx, attempt, "invalid" if err == "invalid" else "error", dur, err)
                if err == "invalid":
                    self._out.recovery["invalid"] += 1
                self._requeue(idx, attempt)

    # -- pooled path -------------------------------------------------------------
    def _run_pooled(self) -> None:
        pending = self._pending
        self._pool = self._make_pool()
        while len(self._results) < len(self.tasks) or not self._feed_done:
            now = time.monotonic()
            # Fill free slots with ready pending work, pulling the feed
            # when the queue runs dry.
            while len(self._inflight) < self.n_workers:
                if not pending and self._pull_feed() == 0:
                    break
                idx, attempt, not_before = pending[0]
                if not_before > now:
                    break
                pending.popleft()
                if idx in self._results:
                    continue
                if attempt >= self.recovery.max_attempts:
                    self._degrade(idx, attempt)
                    continue
                self._submit(idx, attempt)
            watched = list(self._inflight) + list(self._late)
            if not watched:
                if pending:  # everything is backing off; wait for the head
                    time.sleep(max(0.0, min(pending[0][2] - now, BACKOFF_CAP)))
                    continue
                if not self._feed_done:
                    if self._pull_feed() > 0:
                        continue
                    if self._feed_done:
                        continue  # loop condition decides whether we are done
                    raise SupervisorError(
                        "supervisor stalled: feed returned no work with none in flight"
                    )
                if len(self._results) < len(self.tasks):  # pragma: no cover - invariant
                    raise SupervisorError("supervisor stalled with no work in flight")
                break
            done, _ = wait(watched, timeout=self._tick(now), return_when=FIRST_COMPLETED)
            broken = False
            for fut in done:
                broken = self._harvest(fut) or broken
            if broken:
                self._out.recovery["crashes"] += 1
                self._rebuild_pool(outcome="crash")
                continue
            self._sweep_deadlines()
            # Every worker slot presumed hung: only a fresh pool can make
            # progress on whatever is still queued or unfinished.
            hung = sum(1 for f in self._late if not f.done())
            if hung >= self.n_workers and len(self._results) < len(self.tasks):
                self._rebuild_pool(outcome="abandoned")

    # -- pool plumbing -----------------------------------------------------------
    def _make_pool(self):
        if self.executor == "thread":
            return ThreadPoolExecutor(
                max_workers=self.n_workers,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def _kill_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = getattr(pool, "_processes", None) or {}
        for p in list(procs.values()):
            try:
                p.terminate()
            except Exception:
                pass  # already reaped, or a pool internal moved: shutdown() below still runs
        pool.shutdown(wait=False, cancel_futures=True)

    def _close_pool(self) -> None:
        pool = self._pool
        if pool is None:
            return
        leftovers = [f for f in (*self._inflight, *self._late) if not f.done()]
        if leftovers:
            self._kill_pool()  # hung workers must not block shutdown
        else:
            self._pool = None
            pool.shutdown(wait=True)

    def _rebuild_pool(self, outcome: str) -> None:
        """Abandon the current pool, re-queue its in-flight tasks, start anew.

        Tasks already moved to ``_late`` were re-queued when their deadline
        fired, so only ``_inflight`` entries are re-queued here.
        """
        now = time.monotonic()
        for _fut, (idx, attempt, submitted_at) in self._inflight.items():
            self._record(idx, attempt, outcome, now - submitted_at)
            self._requeue(idx, attempt)
        self._inflight.clear()
        self._late.clear()
        self._kill_pool()
        self._out.n_pool_rebuilds += 1
        if self._out.n_pool_rebuilds > self.max_pool_rebuilds:
            raise SupervisorError(
                f"worker pool lost {self._out.n_pool_rebuilds} times "
                f"(limit {self.max_pool_rebuilds}); presuming all workers dead"
            )
        self._pool = self._make_pool()

    # -- scheduling internals ----------------------------------------------------
    def _submit(self, idx: int, attempt: int) -> None:
        disruptive_ok = self.executor == "process"
        payload = (self.fn, self.tasks[idx], idx, attempt, self.fault_plan, disruptive_ok)
        fut = self._pool.submit(_run_task, payload)
        self._inflight[fut] = (idx, attempt, time.monotonic())

    def _current_timeout(self) -> float | None:
        return self.recovery.deadline(self._durations)

    def _tick(self, now: float) -> float:
        timeout = self._current_timeout()
        if timeout is None or not self._inflight:
            return 0.25
        next_deadline = min(at + timeout for _i, _a, at in self._inflight.values())
        return min(0.5, max(POLL_INTERVAL, next_deadline - now))

    def _harvest(self, fut) -> bool:
        """Absorb one completed future; returns True if the pool is broken."""
        now = time.monotonic()
        if fut.cancelled():
            self._inflight.pop(fut, None)
            self._late.pop(fut, None)
            return False
        exc = fut.exception()
        if isinstance(exc, BrokenExecutor):
            return True  # maps left intact for _rebuild_pool
        info = self._inflight.pop(fut, None)
        was_late = info is None
        if was_late:
            info = self._late.pop(fut, None)
        if info is None:
            return False
        idx, attempt, submitted_at = info
        dur = now - submitted_at
        if exc is not None:
            self._record(idx, attempt, "error", dur, repr(exc))
            if not was_late:  # a late failure was already re-queued at timeout
                self._requeue(idx, attempt)
            return False
        result = fut.result()
        if idx in self._results:
            self._out.n_duplicates += 1
            self._record(idx, attempt, "duplicate", dur)
            return False
        if not self._valid(idx, result):
            self._out.recovery["invalid"] += 1
            self._record(idx, attempt, "invalid", dur)
            if not was_late:
                self._requeue(idx, attempt)
            return False
        self._accept(idx, attempt, result, dur, "late-ok" if was_late else "ok")
        return False

    def _sweep_deadlines(self) -> None:
        timeout = self._current_timeout()
        if timeout is None:
            return
        pending = self._pending
        now = time.monotonic()
        for fut in [f for f, (_i, _a, at) in self._inflight.items() if now - at >= timeout]:
            idx, attempt, submitted_at = self._inflight.pop(fut)
            if fut.cancel():
                # Never started (queued behind hung workers): re-queue at the
                # same attempt — the task itself did nothing wrong.
                pending.append((idx, attempt, now))
                continue
            if fut.done():
                self._inflight[fut] = (idx, attempt, submitted_at)
                continue  # finished between sweep start and cancel; harvest next tick
            self._out.recovery["timeouts"] += 1
            self._record(idx, attempt, "timeout", now - submitted_at)
            self._late[fut] = (idx, attempt, submitted_at)
            self._requeue(idx, attempt)

    def _requeue(self, idx: int, attempt: int) -> None:
        self._out.recovery["retries"] += 1
        backoff = min(BACKOFF_CAP, self.backoff_base * (2.0**attempt))
        self._pending.append((idx, attempt + 1, time.monotonic() + backoff))

    # -- attempt bookkeeping -----------------------------------------------------
    def _valid(self, idx: int, result) -> bool:
        if self.validate is None:
            return True
        try:
            return bool(self.validate(self.tasks[idx], result))
        except Exception:
            return False

    def _accept(self, idx: int, attempt: int, result, dur: float, outcome: str) -> None:
        self._results[idx] = result
        self._durations.append(dur)
        self._record(idx, attempt, outcome, dur)
        if self.on_result is not None:
            self.on_result(idx, result)

    def _record(self, idx: int, attempt: int, outcome: str, dur: float, err: str = "") -> None:
        # Recorded at attempt end, so its start is "now minus duration" on
        # the supervisor's clock — the worker-utilization timeline's x-axis.
        started = max(0.0, time.monotonic() - dur - self._t0)
        self._out.attempts.append(TaskAttempt(idx, attempt, outcome, dur, err, started))

    def _attempt_inline(self, idx: int, attempt: int):
        """Run one task in-process (serial executor and degradation path)."""
        t0 = time.monotonic()
        payload = (self.fn, self.tasks[idx], idx, attempt, self.fault_plan, False)
        try:
            result = _run_task(payload)
        except Exception as exc:
            return False, None, repr(exc), time.monotonic() - t0
        dur = time.monotonic() - t0
        if not self._valid(idx, result):
            return False, None, "invalid", dur
        return True, result, "", dur

    def _degrade(self, idx: int, attempt: int) -> None:
        if not self.degrade_serial:
            raise SupervisorError(
                f"task {idx} failed {attempt} attempts (limit {self.recovery.max_attempts}) "
                "and serial degradation is disabled"
            )
        ok, result, err, dur = self._attempt_inline(idx, attempt)
        if not ok:
            raise SupervisorError(
                f"task {idx} failed {attempt} pool attempts and the in-process "
                f"serial fallback: {err}"
            )
        self._out.recovery["degraded"] += 1
        self._accept(idx, attempt, result, dur, "degraded-ok")
