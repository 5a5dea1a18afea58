"""The one master: a policy, its lanes' flights and the recovery books, sans I/O.

The paper's PVM master hands work to whichever slave asks and requeues a
dead slave's work.  :class:`MasterCore` is that master as a state machine,
and the only caller of the policy; the pool's
:class:`~repro.runtime.supervisor.TaskSupervisor`, the TCP
:class:`~repro.net.master.MasterServer` and the simulator's
:class:`~repro.sched.sim.SimTransport` are its I/O shells (DESIGN §10).
Its rules: a lane holds at most one flight and one that answers is re-fed
first; a retired lane's late answer is dropped; a flight is overdue once
it has run :meth:`RecoveryOptions.deadline
<repro.runtime.options.RecoveryOptions.deadline>` seconds (re-read every
tick); a result is accepted only if the validator passes it; a unit out
of attempts runs in-process when ``degrade`` is set and fails the run
otherwise; and nothing in flight with every lane declined is the one
stall error.
"""

from __future__ import annotations

import time
from typing import Iterator

from ..obs.trace import flight_span_id
from ..runtime.options import (
    LOSSES,
    Close,
    Flight,
    RecoveryCounts,
    RecoveryOptions,
    Stop,
    SupervisorError,
    TaskAttempt,
)
from ..runtime.supervisor import SchedOutcome, SupervisorOutcome
from ..telemetry import NULL

__all__ = ["MasterCore"]


class MasterCore:
    """The master's state machine (see the module docstring).

    Parameters
    ----------
    policy:
        The scheduling state machine; consumed (policies are single-use).
    materialize:
        ``materialize(assignment, lane) -> task arguments``.
    recovery:
        The :class:`~repro.runtime.options.RecoveryOptions`, or ``None`` for
        a master that never loses a lane (the simulator without a worker
        deadline): no deadline, and a lane the policy declines is stopped.
    validate:
        ``validate(args, result) -> bool``, the gate of :meth:`completed`.
    telemetry, trace_root:
        Where the ``recovery`` events and the per-dispatch ``obs.flight``
        spans (parented under ``trace_root``) go; ``flight_spans=False``
        leaves the spans out (the simulator narrates ``task`` spans instead).
    degrade:
        Run a unit in-process once its attempts are spent, instead of failing.
    clock:
        The time a dispatch is stamped with.
    """

    def __init__(
        self,
        policy,
        materialize,
        recovery: RecoveryOptions | None = RecoveryOptions(),
        *,
        validate=None,
        telemetry=NULL,
        trace_root=None,
        flight_spans: bool = True,
        degrade: bool = False,
        clock=time.perf_counter,
    ) -> None:
        self.policy = policy
        self.materialize = materialize
        self.recovery = recovery
        self.validate = validate
        self.telemetry = telemetry
        self.trace_root = trace_root
        self.flight_spans = flight_spans
        self.degrade = degrade
        self.clock = clock
        self.t0 = clock()  # the shell resets it when the run starts
        self.durations: list[float] = []  # of accepted dispatches
        self.attempts: list[TaskAttempt] = []
        self.counts = RecoveryCounts()
        self._units: dict[tuple, list[int]] = {}  # (region, frame1) -> [ordinal, dispatches]
        self._lanes: dict = {}  # live lane -> its Flight or None, in join order
        self._answered: list = []  # lanes that answered since the last tick

    # -- reads -----------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.policy.finished

    @property
    def lanes(self) -> list:
        """The live lanes, in join order."""
        return list(self._lanes)

    def flight(self, lane) -> Flight | None:
        """``lane``'s dispatch in flight (``None``: idle, or not live)."""
        return self._lanes.get(lane)

    def deadline(self) -> float | None:
        """Seconds a dispatch may run before it is overdue."""
        return None if self.recovery is None else self.recovery.deadline(self.durations)

    def next_deadline(self) -> float | None:
        """When the earliest flight falls due, if any can."""
        limit = self.deadline()
        t0s = [f.t0 for f in self._lanes.values() if f is not None]
        return None if limit is None or not t0s else min(t0s) + limit

    def outcome(self, results: list, n_pool_rebuilds: int = 0, **net) -> SchedOutcome:
        """The run's :class:`SchedOutcome` (``net``: ``workers`` and ``net``)."""
        return SchedOutcome(
            results=results,
            assignments=list(self.policy.log),
            supervisor=SupervisorOutcome(
                self.attempts, self.counts, n_pool_rebuilds, self.clock() - self.t0
            ),
            **net,
        )

    # -- inputs ----------------------------------------------------------------
    def lane_up(self, lane) -> None:
        """A worker is ready under ``lane``, a name never used before."""
        self._lanes[lane] = None

    def completed(self, lane, seq, result, now: float, duration: float | None = None):
        """``lane`` answered dispatch ``seq`` with ``result``.

        Returns the accepted :class:`Flight` (``duration`` defaults to the
        time since dispatch); a :class:`Close` when the validator rejected
        the result, which the shell executes like any other; ``None`` for an
        answer that is dropped — a retired lane's, or one to a seq the lane
        does not hold.
        """
        flight = self._lanes.get(lane)
        if flight is None or flight.assignment.seq != seq:
            return None
        if not self._valid(flight.args, result):
            return Close(lane, "invalid")
        self._lanes[lane] = None
        self._answered.append(lane)
        if duration is None:
            duration = now - flight.t0
        outcome = "ok"
        if flight.degraded:
            outcome = "degraded-ok"
            self.counts["degraded"] += 1
            self._recovery_event("degraded", flight, duration)
        self.durations.append(duration)
        self._close(flight, now, outcome, duration)
        self.policy.on_result(lane, flight.assignment)
        return flight

    def partial(self, lane, frame_done: int) -> None:
        """``lane``'s frames before ``frame_done`` are composited: they are
        accepted now, and its flight narrows to the rest."""
        flight = self._lanes.get(lane)
        if flight is not None:
            flight.assignment = self.policy.on_partial_result(lane, frame_done)

    def lost(self, lane, reason: str, now: float, detail: str = "") -> None:
        """``lane`` is gone for ``reason`` (a ``LOSSES`` key): book the loss
        of its flight, if any, and retire it; the policy requeues its work.
        Raises :class:`SupervisorError` when the flight's unit may not run
        again.  A lane already retired is a no-op."""
        if lane not in self._lanes:
            return
        flight = self._lanes.pop(lane)
        if flight is not None:
            self._book_loss(flight, reason, now, detail)
        self.policy.on_worker_lost(lane)

    def tick(self, now: float, joining: bool = False) -> Iterator:
        """Yield what the shell must do at ``now``: re-feed the lanes that
        answered, close the overdue ones, feed every idle lane in join order.

        The shell performs each action before the next is computed (a
        :class:`Close` through :meth:`lost`).  ``joining`` says a lane may
        still come (a connection mid-handshake, a pool slot still held);
        without one, a tick that leaves nothing in flight raises the stall.
        """
        fed = False
        answered, self._answered = self._answered, []
        for lane in answered:
            if (act := self._feed(lane)) is not None:
                fed |= isinstance(act, Flight)
                yield act
        limit = self.deadline()
        if limit is not None:
            overdue = [f for f in self._lanes.values() if f is not None and now >= f.t0 + limit]
            for flight in sorted(overdue, key=lambda f: f.assignment.seq):
                yield Close(flight.lane, "deadline")
        for lane in list(self._lanes):
            if (act := self._feed(lane)) is not None:
                fed |= isinstance(act, Flight)
                yield act
        if not (fed or joining or self.finished or any(self._lanes.values())):
            raise SupervisorError("master stalled: policy returned no work with none in flight")

    # -- internals -------------------------------------------------------------
    def _feed(self, lane):
        """Ask the policy for ``lane``'s next unit if it is live and idle."""
        if lane not in self._lanes or self._lanes[lane] is not None:
            return None
        a = self.policy.next_assignment(lane)
        if a is None:
            if self.recovery is not None:
                return None  # asked again next tick: a loss may requeue work
            del self._lanes[lane]
            return Stop(lane)
        args = self.materialize(a, lane)
        unit = self._units.setdefault((a.region_index, a.frame1), [len(self._units), 0])
        flight = Flight(lane, a, unit[0], unit[1], self.clock(), args, self._spent(unit[1]))
        unit[1] += 1
        self._lanes[lane] = flight
        return flight

    def _spent(self, attempt: int) -> bool:
        """Whether a unit that failed ``attempt`` dispatches has used them all."""
        return self.recovery is not None and attempt >= self.recovery.max_attempts

    def _valid(self, args, result) -> bool:
        if self.validate is None:
            return True
        try:
            return bool(self.validate(args, result))
        except Exception:  # untrusted input, whatever sent it
            return False

    def _book_loss(self, flight: Flight, reason: str, now: float, detail: str) -> None:
        outcome, counter = LOSSES[reason]
        duration = now - flight.t0
        self._close(flight, now, outcome, duration, detail or reason)
        self.counts[counter] += 1
        self._recovery_event(outcome, flight, duration)
        a, n = flight.assignment, flight.attempt + 1
        unit = f"unit {flight.unit} (region {a.region_index}, frames {a.frame0}-{a.frame1})"
        if flight.degraded:
            raise SupervisorError(
                f"{unit} failed {flight.attempt} pool attempts and the in-process "
                f"serial fallback: {detail or reason}"
            )
        if self._spent(n) and not self.degrade:
            raise SupervisorError(
                f"{unit} failed after {n} attempts (last: {reason}) "
                "and serial degradation is disabled"
            )
        self.counts["retries"] += 1

    def _close(self, flight: Flight, now: float, outcome: str, duration: float,
               error: str = "") -> None:
        a = flight.assignment
        if self.flight_spans:
            self.telemetry.emit_span(
                "obs.flight", flight.t0, now - flight.t0,
                span=flight_span_id(a.seq), parent=self.trace_root,
                worker=flight.lane, seq=a.seq, attempt=flight.attempt, outcome=outcome,
            )
        self.attempts.append(TaskAttempt(
            flight.unit, flight.attempt, outcome, duration, error, flight.t0 - self.t0
        ))

    def _recovery_event(self, kind: str, flight: Flight, duration: float) -> None:
        self.telemetry.event(
            "recovery", kind=kind, task=flight.unit, attempt=flight.attempt,
            duration=duration, worker=flight.lane,
        )
