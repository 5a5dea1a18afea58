"""The pool transport: a :class:`~repro.sched.master.MasterCore` over a supervised executor.

``ProcessPoolExecutor.map`` trusts every worker with its life: one crash
aborts the render, one hang stalls it forever.  On a network of
workstations that is the common case, not the exception — so the farm's
pool is one I/O shell of the master core, the same core the TCP
:class:`~repro.net.master.MasterServer` and the simulator drive.

What this shell keeps is the pool's: ``n_workers`` lanes named ``laneN``,
the future each dispatch runs on (``materialize``'s argument to ``fn``),
and the pool itself.  A lost lane is replaced by a fresh one, as a
reconnecting TCP daemon becomes a new lane; a lane lost to its deadline
still holds its pool slot (a *zombie*) until the task ends, and its late
result is dropped and its shared-memory frames released.  When every slot
is hung the pool is killed and rebuilt, and so it is after a crash
(``BrokenExecutor``), at most ``max_pool_rebuilds`` times.  A dispatch after
a unit's attempts are spent runs in-process (``degrade_serial``).

Executors: ``process`` (fork-based, full fault coverage), ``thread``
(crash/hang faults are not injected — they would take down the master)
and ``serial``, which completes each task inline where it is dispatched.
"""

from __future__ import annotations

import threading
import time
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
    Close,
    Flight,
    RecoveryCounts,
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


class TaskSupervisor:
    """Runs one policy through a supervised executor pool.

    Parameters
    ----------
    policy, materialize, validate, trace_root:
        The :class:`~repro.sched.master.MasterCore`'s.  The lane label
        ``materialize`` is given lets renderer-continuation caches
        (thread/serial executors) key on it.
    fn:
        Picklable function of one materialized task argument.
    options:
        The run's :class:`~repro.runtime.options.FarmOptions`.  Read
        here: ``executor``, ``n_workers`` (pool size and lane count),
        ``degrade_serial``, ``fault_plan``, ``telemetry`` and the recovery
        contract.
    initializer, initargs:
        Run in each pool worker as it starts (not on the serial executor).
    on_result:
        ``on_result(assignment, result)``, once per accepted result.
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
        self.executor = options.executor
        self.n_workers = int(options.n_workers)
        self.fault_plan = options.fault_plan
        self.initializer = initializer
        self.initargs = initargs
        self.on_result = on_result
        self.frame_store = frame_store
        self.max_pool_rebuilds = max_pool_rebuilds
        from ..sched.master import MasterCore  # repro.sched imports repro.runtime

        self.core = MasterCore(
            policy, materialize, options.recovery(), validate=validate,
            telemetry=options.telemetry, trace_root=trace_root, degrade=options.degrade_serial,
        )
        self._pool = None
        self._running: dict[Future, Flight] = {}  # submitted, not yet harvested
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
        core = self.core
        core.t0 = time.perf_counter()
        self._open_lanes()
        try:
            if self.executor != "serial":
                self._pool = self._make_pool()
            while not core.finished:
                for act in core.tick(time.perf_counter(), joining=self._zombies() > 0):
                    if isinstance(act, Close):  # overdue: its task keeps the slot
                        core.lost(act.lane, act.reason, time.perf_counter())
                    else:
                        self._submit(act)
                if self._zombies() >= self.n_workers:  # every slot presumed hung
                    self._rebuild_pool()
                    continue
                due = core.next_deadline()  # wake for it, and at least every 0.5 s
                timeout = 0.25 if due is None else due - time.perf_counter()
                done, _ = wait(self._running, timeout=min(0.5, max(POLL_INTERVAL, timeout)),
                               return_when=FIRST_COMPLETED)
                broken = False
                for fut in sorted(done, key=lambda f: self._running[f].assignment.seq):
                    broken = self._harvest(fut) or broken
                if broken:
                    self._rebuild_pool()
        finally:
            self._close_pool()
            if self.frame_store is not None:
                # Accepted refs are attached (see _harvest), so unlinking
                # stragglers by name can't strand a consumer.
                self.frame_store.cleanup()
        results = [r for _unit, r in sorted(self._accepted, key=lambda ur: ur[0])]
        return core.outcome(results, n_pool_rebuilds=self._n_rebuilds)

    # -- lanes and futures -------------------------------------------------------
    def _zombies(self) -> int:
        """Tasks still running on a pool slot after the core retired their lane."""
        return sum(self.core.flight(f.lane) is not f for f in self._running.values())

    def _open_lanes(self) -> None:
        """Name a fresh lane for every pool slot nobody holds."""
        while len(self.core.lanes) + self._zombies() < self.n_workers:
            self.core.lane_up(f"lane{self._n_lanes}")
            self._n_lanes += 1

    def _submit(self, flight: Flight) -> None:
        inline = self.executor == "serial" or flight.degraded
        payload = (self.fn, flight.args, flight.unit, flight.attempt, self.fault_plan,
                   self.executor == "process" and not inline)
        fut = Future()
        try:
            if inline:  # completed where it is dispatched
                fut.set_result(_run_task(payload))
            else:
                fut = self._pool.submit(_run_task, payload)
        except Exception as exc:  # the task's failure, or the pool broke since wait()
            fut.set_exception(exc)  # harvested like a pool future's
        self._running[fut] = flight

    def _harvest(self, fut) -> bool:
        """Hand one finished future to the core; True if the pool is broken."""
        exc = fut.exception()
        if isinstance(exc, BrokenExecutor):
            return True  # lost with the rest of the pool in _rebuild_pool
        flight = self._running.pop(fut)
        now = time.perf_counter()
        if exc is not None:
            self.core.lost(flight.lane, "error", now, repr(exc))  # a no-op for a zombie
        else:
            result = fut.result()
            out = self.core.completed(
                flight.lane, flight.assignment.seq, result, now, now - flight.t0
            )
            if out is flight:
                if self.frame_store is not None:
                    attach_refs(result)
                self._accepted.append((flight.unit, result))
                if self.on_result is not None:
                    self.on_result(flight.assignment, result)
            else:  # rejected, or a zombie's late answer
                release_refs([result])
                if out is not None:
                    self.core.lost(flight.lane, out.reason, now)
        self._open_lanes()
        return False

    # -- pool plumbing -----------------------------------------------------------
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
        if any(not f.done() for f in self._running):
            self._kill_pool()  # hung workers must not block shutdown
        else:
            self._pool = None
            pool.shutdown(wait=True)

    def _rebuild_pool(self) -> None:
        """Kill the pool and start anew; the dispatches it still ran are
        lost with it (a crash), the hung ones were lost already."""
        running, self._running = self._running, {}
        self._kill_pool()
        self._n_rebuilds += 1
        if self._n_rebuilds > self.max_pool_rebuilds:
            raise SupervisorError(
                f"worker pool lost {self._n_rebuilds} times "
                f"(limit {self.max_pool_rebuilds}); presuming all workers dead"
            )
        now = time.perf_counter()
        for flight in sorted(running.values(), key=lambda f: f.assignment.seq):
            self.core.lost(flight.lane, "eof", now)  # a no-op for a zombie
        self._open_lanes()
        self._pool = self._make_pool()
