"""Drive a scheduling policy over the supervised multiprocessing executor.

Where :class:`~repro.sched.sim.SimTransport` replays assignments against
modelled costs in virtual time, this transport executes them for real:
each :class:`~repro.sched.core.Assignment` is materialized into a
picklable task argument and run by a
:class:`~repro.runtime.supervisor.TaskSupervisor` worker pool.  The
policy stays in charge of *what runs next* — the transport feeds the
supervisor through its dynamic ``feed`` hook, maintaining ``n_workers``
logical *lanes* so chain affinity survives the trip through a thread or
process pool: a lane asks the policy for work, carries exactly one
assignment at a time, and is freed when that assignment's result is
accepted.  Dispatch order (``policy.log``) is therefore determined by
the policy alone, which is what makes a process run comparable
assignment-for-assignment with a simulated one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..buffers import attach_refs
from ..obs.trace import flight_span_id
from ..runtime.options import FarmOptions
from ..runtime.supervisor import SupervisorOutcome, TaskSupervisor
from .core import Assignment, SchedulingPolicy

__all__ = ["ProcessTransport", "SchedOutcome", "assignment_echo_task"]


def assignment_echo_task(args):
    """Picklable no-op task: returns its assignment tuple unchanged.

    Used by the equivalence tests and the bench-smoke transport diff,
    where only the *dispatch decisions* matter, not the pixels.
    """
    return args


@dataclass
class SchedOutcome:
    """What a policy-driven run produced, whatever the transport.

    ``results`` holds one entry per *accepted* result in completion
    order; ``assignments`` is the policy's dispatch log (including
    reassigned dispatches), so the two lists line up only on a loss-free
    run.  The network transport additionally fills ``workers`` (lane ->
    registration info from the handshake) and ``net`` (a
    :class:`~repro.net.master.NetStats` wire accounting record); both
    stay at their defaults for process runs.
    """

    results: list  # accepted results, completion order
    assignments: list[Assignment]  # dispatch order (== policy.log)
    supervisor: SupervisorOutcome
    workers: dict = field(default_factory=dict)  # lane -> handshake info (net only)
    net: object = None  # NetStats for tcp runs, None otherwise


class ProcessTransport:
    """Runs one policy through a :class:`TaskSupervisor`.

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
        here: ``executor``, ``degrade_serial``, ``fault_plan`` and the
        recovery contract go to the supervisor; ``n_workers`` is its pool
        size and the number of logical lanes (see the module docstring),
        so the policy sees at most that many concurrent dispatches.  A
        lane the policy declines stays free and is asked again after the
        next completion — an all-lanes-idle decline with nothing in
        flight is a policy stall, which the supervisor's feed protocol
        turns into a loud ``RuntimeError`` rather than a hang.
        ``telemetry`` is the session narrated into: one ``obs.flight``
        span per assignment (dispatch -> accepted result), parented under
        ``trace_root`` — the same trace shape the TCP master emits, so
        the obs tooling reads either transport.
    frame_store:
        Optional :class:`~repro.buffers.SharedFrameStore` whose token the
        caller armed the pool workers with.  The transport takes over the
        run-end sweep: every accepted result's :class:`FrameRef` is
        attached on arrival (so a later unlink can never strand it), and
        ``run()`` unlinks whatever segments never came home — crashed
        attempts, discarded duplicates.  The caller still releases the
        refs it consumed.
    supervisor_kwargs:
        Passed through to :class:`TaskSupervisor` (validate, initializer,
        backoff_base, ...).
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        fn,
        materialize,
        options: FarmOptions,
        *,
        on_result=None,
        trace_root=None,
        frame_store=None,
        **supervisor_kwargs,
    ) -> None:
        self.policy = policy
        self.fn = fn
        self.materialize = materialize
        self.options = options = options.resolved()
        self.n_workers = int(options.n_workers)
        self._user_on_result = on_result
        self.telemetry = options.telemetry
        self.trace_root = trace_root
        self.frame_store = frame_store
        self.supervisor_kwargs = supervisor_kwargs
        self.lanes = [f"lane{i}" for i in range(self.n_workers)]
        self._free: deque[str] = deque(self.lanes)
        self._busy: dict[str, Assignment] = {}
        # task idx -> (lane, assignment, dispatch time)
        self._meta: dict[int, tuple[str, Assignment, float]] = {}
        self._next_idx = 0

    # -- supervisor feed ---------------------------------------------------
    def _feed(self):
        policy = self.policy
        out = []
        # Ask every free lane, not just the head of the queue: with chain
        # affinity one lane may have nothing while the lane behind it still
        # owns a chain to continue.  Lanes the policy declines stay free and
        # are asked again after the next completion.
        for lane in list(self._free):
            a = policy.next_assignment(lane)
            if a is None:
                continue
            self._free.remove(lane)
            self._busy[lane] = a
            self._meta[self._next_idx] = (lane, a, self.telemetry.now())
            out.append(self.materialize(a, lane))
            self._next_idx += 1
        if out:
            return out
        if self._busy:
            return []  # results in flight may unlock continuations/steals
        return None  # nothing running, nothing dispatchable: exhausted

    def _on_result(self, idx: int, result) -> None:
        lane, a, t0 = self._meta[idx]
        if self.frame_store is not None:
            attach_refs(result)
        # One flight per assignment, dispatch -> accepted result.  The
        # pool hides its internal retries behind acceptance, so attempt
        # stays 0 here (task.attempt events carry the retry story).
        self.telemetry.emit_span(
            "obs.flight",
            t0,
            self.telemetry.now() - t0,
            span=flight_span_id(a.seq),
            parent=self.trace_root,
            worker=lane,
            seq=a.seq,
            attempt=0,
            outcome="ok",
        )
        self.policy.on_result(lane, a)
        if self._busy.get(lane) is a:
            del self._busy[lane]
            self._free.append(lane)
        if self._user_on_result is not None:
            self._user_on_result(a, result)

    # -- entry -------------------------------------------------------------
    def run(self) -> SchedOutcome:
        options = self.options
        sup = TaskSupervisor(
            self.fn,
            [],
            n_workers=options.n_workers,
            executor=options.executor,
            degrade_serial=options.degrade_serial,
            fault_plan=options.fault_plan,
            recovery=options.recovery(),
            feed=self._feed,
            on_result=self._on_result,
            **self.supervisor_kwargs,
        )
        try:
            out = sup.run()
        finally:
            if self.frame_store is not None:
                # Accepted refs are already attached (see _on_result), so
                # unlinking stragglers by name can't strand a consumer.
                self.frame_store.cleanup()
        policy = self.policy
        if not policy.finished:
            missing = policy.total_units - policy.completed_units
            raise RuntimeError(f"scheduler finished with {missing} units incomplete")
        return SchedOutcome(
            results=out.results,
            assignments=list(policy.log),
            supervisor=out,
        )
