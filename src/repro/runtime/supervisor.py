"""The pool transport: a scheduling policy over a supervised executor.

``ProcessPoolExecutor.map`` trusts every worker with its life: one crash
aborts the render, one hang stalls it forever.  On a network of
workstations that is the common case, not the exception — so the farm's
pool master is this supervisor, and it loses a worker the way the TCP
:class:`~repro.net.master.MasterServer` does.

It keeps ``n_workers`` *lanes* and asks ``policy.next_assignment(lane)``
for each free one; ``materialize(assignment, lane)`` turns the answer into
the argument of ``fn``, which runs on a pool slot.  A lane holds one
dispatch at a time, so chain affinity survives the trip through the pool.
A dispatch is **lost** when the task raises, its result fails validation,
its deadline passes (the farm's one rule,
:meth:`~repro.runtime.options.RecoveryOptions.deadline`) or the pool
breaks.  A loss is booked in the run's
:class:`~repro.runtime.options.RecoveryRecord`, handed to
``policy.on_worker_lost(lane)`` — which requeues the unit — and the lane is
replaced by a fresh one, just as a reconnecting TCP daemon becomes a new
lane.  A lost dispatch that completes after all is dropped and its
shared-memory frames released.

A hung slot holds its lane's replacement back until it frees; when every
slot is hung the pool is killed and rebuilt, and so it is after a crash
(``BrokenExecutor``), at most ``max_pool_rebuilds`` times.  A unit whose
``max_attempts`` dispatches all failed runs in-process when
``degrade_serial`` is set; otherwise the run raises
:class:`~repro.runtime.options.SupervisorError`.

Executors: ``process`` (fork-based, full fault coverage), ``thread``
(crash/hang faults are not injected — they would take down the master)
and ``serial``, which completes each task inline where it is dispatched.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

from ..buffers import attach_refs, release_refs
from .options import (
    Flight,
    RecoveryCounts,
    RecoveryRecord,
    RecoveryView,
    SupervisorError,
    TaskAttempt,
)

__all__ = [
    "SchedOutcome",
    "SupervisorError",
    "SupervisorOutcome",
    "TaskAttempt",
    "TaskSupervisor",
    "assignment_echo_task",
    "task_context",
]

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


def assignment_echo_task(args):
    """Picklable no-op task: returns its assignment tuple unchanged.

    Used by the equivalence tests and the bench-smoke transport diff,
    where only the *dispatch decisions* matter, not the pixels.
    """
    return args


@dataclass
class SupervisorOutcome(RecoveryView):
    """The robustness story of a run: every attempt and the counters."""

    results: list
    attempts: list[TaskAttempt] = field(default_factory=list)
    recovery: RecoveryCounts = field(default_factory=RecoveryCounts)
    n_pool_rebuilds: int = 0
    wall_time: float = 0.0


@dataclass
class SchedOutcome:
    """What a policy-driven run produced, whatever the transport.

    ``results`` holds one entry per *accepted* result — in unit order on
    the pool (the order of first dispatch; task order for
    :meth:`TaskSupervisor.over`), in completion order over TCP;
    ``assignments`` is the policy's dispatch log (including reassigned
    dispatches), so the two lists line up only on a loss-free run.  The
    network transport additionally fills ``workers`` (lane ->
    registration info from the handshake) and ``net`` (a
    :class:`~repro.net.master.NetStats` wire accounting record).
    """

    results: list
    assignments: list  # Assignments, dispatch order (== policy.log)
    supervisor: SupervisorOutcome
    workers: dict = field(default_factory=dict)  # lane -> handshake info (net only)
    net: object = None  # NetStats for tcp runs, None otherwise


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


class _Inline:
    """The serial executor: ``submit`` runs the call before it returns."""

    def submit(self, fn, *args) -> Future:
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:  # the task's failure, stored as a pool would
            fut.set_exception(exc)
        return fut


_INLINE = _Inline()


class TaskSupervisor:
    """Runs one policy through a supervised executor pool.

    Parameters
    ----------
    policy:
        The scheduling state machine; consumed (policies are single-use).
    fn:
        Picklable function of one materialized task argument.
    materialize:
        ``materialize(assignment, lane) -> task argument``.  The lane
        label rides along so renderer-continuation caches (thread/serial
        executors) and benchmarks that skew per-lane speed can key on it.
    options:
        The run's :class:`~repro.runtime.options.FarmOptions`.  Read
        here: ``executor``, ``n_workers`` (pool size and lane count),
        ``degrade_serial``, ``fault_plan``, ``telemetry`` and the recovery
        contract.
    initializer, initargs:
        Run in each pool worker as it starts (not on the serial executor).
    validate:
        ``validate(task argument, result) -> bool``; a rejected result —
        or a validator that raises — loses the dispatch (``invalid``).
    on_result:
        ``on_result(assignment, result)``, once per accepted result.
    trace_root:
        Parent span id of the per-dispatch ``obs.flight`` spans.
    frame_store:
        Optional :class:`~repro.buffers.SharedFrameStore` whose token the
        caller armed the pool workers with.  Every accepted result's
        :class:`FrameRef` is attached on arrival (so a later unlink can
        never strand it), and ``run()`` unlinks whatever segments never
        came home.  The caller still releases the refs it consumed.
    max_pool_rebuilds:
        Pool rebuilds allowed before all workers are presumed dead.
    """

    def __init__(
        self,
        policy,
        fn,
        materialize,
        options,
        *,
        initializer=None,
        initargs=(),
        validate=None,
        on_result=None,
        trace_root=None,
        frame_store=None,
        max_pool_rebuilds: int = 4,
    ) -> None:
        options = options.resolved()
        self.policy = policy
        self.fn = fn
        self.materialize = materialize
        self.executor = options.executor
        self.n_workers = int(options.n_workers)
        self.fault_plan = options.fault_plan
        self.initializer = initializer
        self.initargs = initargs
        self.validate = validate
        self.on_result = on_result
        self.frame_store = frame_store
        self.max_pool_rebuilds = max_pool_rebuilds
        self.record = RecoveryRecord(
            options.recovery(), options.telemetry, trace_root, degrade=options.degrade_serial
        )
        self._pool = None
        self._flights: dict[Future, Flight] = {}  # one per busy lane
        self._zombies: dict[Future, Flight] = {}  # lost, but still holding a slot
        self._free: deque[str] = deque()
        self._n_lanes = 0
        self._n_rebuilds = 0
        self._accepted: list[tuple[int, object]] = []  # (unit ordinal, result)

    @classmethod
    def over(cls, fn, tasks, options, **kwargs) -> "TaskSupervisor":
        """The list form: ``fn`` over ``tasks``, one unit per task handed
        out FIFO; ``run().results`` come back in task order."""
        from ..sched.core import DemandDrivenPolicy  # repro.sched imports repro.runtime

        tasks = list(tasks)
        policy = DemandDrivenPolicy([(i, 0, 1) for i in range(len(tasks))])
        return cls(policy, fn, lambda a, lane: tasks[a.region_index], options, **kwargs)

    # -- public entry ----------------------------------------------------------
    def run(self) -> SchedOutcome:
        """Serve the policy until it is finished."""
        t0 = self.record.t0 = time.perf_counter()
        self._open_lanes()
        try:
            if self.executor != "serial":
                self._pool = self._make_pool()
            while not self.policy.finished:
                self._fill()
                if not self._flights and not self._zombies:
                    raise SupervisorError(
                        "supervisor stalled: policy returned no work with none in flight"
                    )
                watched = [*self._flights, *self._zombies]
                done, _ = wait(watched, timeout=self._tick(), return_when=FIRST_COMPLETED)
                broken = False
                for fut in sorted(done, key=self._seq_of):
                    broken = self._harvest(fut) or broken
                if broken:
                    self._rebuild_pool()
                    continue
                self._sweep_deadlines()
                if len(self._zombies) >= self.n_workers:  # every slot presumed hung
                    self._rebuild_pool()
        finally:
            self._close_pool()
            if self.frame_store is not None:
                # Accepted refs are attached (see _harvest), so unlinking
                # stragglers by name can't strand a consumer.
                self.frame_store.cleanup()
        results = [r for _unit, r in sorted(self._accepted, key=lambda ur: ur[0])]
        record = self.record
        return SchedOutcome(
            results=results,
            assignments=list(self.policy.log),
            supervisor=SupervisorOutcome(
                results=results,
                attempts=record.attempts,
                recovery=record.counts,
                n_pool_rebuilds=self._n_rebuilds,
                wall_time=time.perf_counter() - t0,
            ),
        )

    # -- lanes -------------------------------------------------------------------
    def _open_lanes(self) -> None:
        """Name a fresh lane for every pool slot nobody holds."""
        while len(self._free) + len(self._flights) + len(self._zombies) < self.n_workers:
            self._free.append(f"lane{self._n_lanes}")
            self._n_lanes += 1

    def _fill(self) -> None:
        # Ask every free lane, not just the head of the queue: with chain
        # affinity one lane may have nothing while the lane behind it still
        # owns a chain to continue.  Lanes the policy declines stay free and
        # are asked again after the next completion.
        for lane in list(self._free):
            a = self.policy.next_assignment(lane)
            if a is None:
                continue
            self._free.remove(lane)
            args = self.materialize(a, lane)
            flight = self.record.dispatch(lane, a, args, time.perf_counter())
            inline = self.executor == "serial" or self.record.spent(flight.attempt)
            payload = (self.fn, args, flight.unit, flight.attempt, self.fault_plan,
                       self.executor == "process" and not inline)
            fut = (_INLINE if inline else self._pool).submit(_run_task, payload)
            self._flights[fut] = flight

    def _seq_of(self, fut) -> int:
        flight = self._flights.get(fut) or self._zombies[fut]
        return flight.assignment.seq

    # -- outcomes ----------------------------------------------------------------
    def _harvest(self, fut) -> bool:
        """Absorb one finished future; returns True if the pool is broken."""
        exc = fut.exception()
        if isinstance(exc, BrokenExecutor):
            return True  # lost with the rest of the pool in _rebuild_pool
        flight = self._flights.pop(fut, None)
        if flight is None:  # a lost dispatch finishing late: dropped
            del self._zombies[fut]
            if exc is None:
                release_refs([fut.result()])
            self._open_lanes()
            return False
        now = time.perf_counter()
        if exc is not None:
            self._lose(flight, "error", now, repr(exc))
            return False
        result = fut.result()
        if not self.record.valid(self.validate, flight.args, result):
            release_refs([result])
            self._lose(flight, "invalid", now)
            return False
        if self.frame_store is not None:
            attach_refs(result)
        self.record.accept(flight, now, now - flight.t0)
        self._accepted.append((flight.unit, result))
        self.policy.on_result(flight.lane, flight.assignment)
        self._free.append(flight.lane)
        if self.on_result is not None:
            self.on_result(flight.assignment, result)
        return False

    def _lose(self, flight: Flight, reason: str, now: float, detail: str = "") -> None:
        """Book the loss, requeue the lane's unit, retire the lane."""
        self.record.lose(flight, reason, now, detail)
        self.policy.on_worker_lost(flight.lane)
        self._open_lanes()

    def _sweep_deadlines(self) -> None:
        limit = self.record.deadline()
        if limit is None:
            return
        now = time.perf_counter()
        for fut, flight in list(self._flights.items()):
            if now - flight.t0 >= limit and not fut.done():
                # The slot stays taken until the task ends; its lane is gone.
                self._zombies[fut] = self._flights.pop(fut)
                self._lose(flight, "deadline", now)

    # -- pool plumbing -----------------------------------------------------------
    def _tick(self) -> float:
        limit = self.record.deadline()
        if limit is None or not self._flights:
            return 0.25
        next_deadline = min(f.t0 for f in self._flights.values()) + limit
        return min(0.5, max(POLL_INTERVAL, next_deadline - time.perf_counter()))

    def _make_pool(self):
        cls = ThreadPoolExecutor if self.executor == "thread" else ProcessPoolExecutor
        return cls(
            max_workers=self.n_workers, initializer=self.initializer, initargs=self.initargs
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
        if any(not f.done() for f in (*self._flights, *self._zombies)):
            self._kill_pool()  # hung workers must not block shutdown
        else:
            self._pool = None
            pool.shutdown(wait=True)

    def _rebuild_pool(self) -> None:
        """Kill the pool and start anew; the dispatches it still ran are
        lost with it (a crash), the hung ones were lost already."""
        lost, self._flights = self._flights, {}
        self._zombies.clear()
        self._kill_pool()
        self._n_rebuilds += 1
        if self._n_rebuilds > self.max_pool_rebuilds:
            raise SupervisorError(
                f"worker pool lost {self._n_rebuilds} times "
                f"(limit {self.max_pool_rebuilds}); presuming all workers dead"
            )
        now = time.perf_counter()
        for flight in sorted(lost.values(), key=lambda f: f.assignment.seq):
            self._lose(flight, "eof", now)
        self._open_lanes()
        self._pool = self._make_pool()
