"""A PVM-like message-passing layer over the discrete-event simulator.

The paper coordinates its workstations with PVM 3.1 ("message-passing
systems, such as PVM and MPI, are robust, easy to use, and available
without cost").  This module reproduces the programming model: tasks are
sequential programs that compute, ``send`` and ``recv``; the master/slave
renderers in :mod:`repro.parallel` are written against it exactly as the
C originals were written against ``pvm_send``/``pvm_recv``.

Tasks are Python generators.  They *yield* requests and are resumed with
the result once the simulated operation completes:

    def worker(ctx):
        while True:
            msg = yield Recv()
            if msg.tag == "stop":
                return
            yield Compute(units=msg.payload["work"], working_set_mb=12.0)
            yield Send(msg.src, nbytes=4096, payload=result, tag="done")

Virtual-time semantics:

* ``Compute(units)`` occupies the task's machine CPU for
  ``units * sec_per_unit / machine.speed * thrash`` seconds; tasks sharing
  a machine serialize.
* ``Send`` occupies the shared Ethernet; the sender blocks until the
  message leaves the wire (a synchronous ``pvm_send`` on 10BASE-T).
* ``Recv`` blocks until a matching message is in the task's mailbox.
* ``WriteFile(nbytes)`` occupies the machine's disk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator

from .event import FifoResource, Simulator
from .machine import Machine, ThrashModel
from .network import Ethernet

__all__ = [
    "Compute",
    "Recv",
    "Send",
    "Sleep",
    "WriteFile",
    "Message",
    "TaskContext",
    "VirtualPVM",
    "DeadlockError",
]


# -- requests a task may yield -------------------------------------------------
@dataclass(frozen=True)
class Compute:
    """Burn CPU for ``units`` work units (rays, in the render programs)."""

    units: float
    working_set_mb: float = 0.0


@dataclass(frozen=True)
class Send:
    """Transmit ``payload`` (modelled size ``nbytes``) to task ``dst``."""

    dst: int
    nbytes: int
    payload: Any = None
    tag: str = ""


@dataclass(frozen=True)
class Recv:
    """Wait for the next message (optionally restricted to ``tag``).

    With ``timeout`` set, the task resumes with ``None`` after that many
    virtual seconds if no matching message arrived — the primitive a
    fault-tolerant master needs to detect dead workers.
    """

    tag: str | None = None
    timeout: float | None = None


@dataclass(frozen=True)
class WriteFile:
    """Write ``nbytes`` to the local disk (image output)."""

    nbytes: int


@dataclass(frozen=True)
class Sleep:
    """Idle for ``dt`` virtual seconds."""

    dt: float


@dataclass(frozen=True)
class Message:
    """What ``Recv`` resolves to."""

    src: int
    tag: str
    payload: Any
    nbytes: int


class DeadlockError(RuntimeError):
    """The event queue drained while tasks were still blocked in Recv."""


@dataclass
class TaskContext:
    """Per-task runtime state (also handed to programs for introspection)."""

    tid: int
    name: str
    machine: Machine
    mailbox: deque = field(default_factory=deque)
    waiting_tag: str | None = None
    blocked: bool = False
    finished: bool = False
    dead: bool = False
    result: Any = None
    compute_seconds: float = 0.0
    units_computed: float = 0.0
    wait_seq: int = 0  # invalidates stale Recv timeouts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<task {self.tid} {self.name!r} on {self.machine.name}>"


class VirtualPVM:
    """The virtual machine: workstations + Ethernet + task scheduler.

    Parameters
    ----------
    machines:
        The workstation pool.  Task placement is by machine name.
    sec_per_work_unit:
        Seconds a speed-1.0 machine needs per work unit.  The Table-1
        calibration sets this from the paper's column (1).
    thrash:
        Memory-pressure model (see :class:`ThrashModel`).
    ethernet_kwargs:
        Forwarded to :class:`Ethernet`.
    """

    def __init__(
        self,
        machines: list[Machine],
        sec_per_work_unit: float = 1.0,
        thrash: ThrashModel | None = None,
        **ethernet_kwargs,
    ):
        if not machines:
            raise ValueError("need at least one machine")
        names = [m.name for m in machines]
        if len(names) != len(set(names)):
            raise ValueError("machine names must be unique")
        if sec_per_work_unit <= 0:
            raise ValueError("sec_per_work_unit must be positive")
        self.sim = Simulator()
        self.machines = {m.name: m for m in machines}
        self.ethernet = Ethernet(self.sim, **ethernet_kwargs)
        self.sec_per_work_unit = float(sec_per_work_unit)
        self.thrash = thrash if thrash is not None else ThrashModel(alpha=0.0)
        self._cpus = {m.name: FifoResource(self.sim, f"cpu:{m.name}") for m in machines}
        self._disks = {m.name: FifoResource(self.sim, f"disk:{m.name}") for m in machines}
        self._tasks: dict[int, TaskContext] = {}
        self._gens: dict[int, Generator] = {}
        self._next_tid = 1
        self.trace: list[tuple[float, str, str]] = []
        self.tracing = False
        #: Structured activity records, populated when ``tracing`` is on:
        #: ("compute", machine, task_name, start, end),
        #: ("send", src_name, dst_name, tag, nbytes, start, end),
        #: ("write", machine, task_name, start, end).
        self.events: list[tuple] = []

    # -- task management -----------------------------------------------------
    def spawn(self, program: Generator, machine_name: str, name: str | None = None) -> int:
        """Register a task generator on a machine; returns its tid.

        The generator starts running at virtual time 0 (or at spawn time if
        spawned mid-simulation — the paper's adaptive schemes do not need
        dynamic spawning, but it works).
        """
        if machine_name not in self.machines:
            raise KeyError(f"unknown machine {machine_name!r}")
        tid = self._next_tid
        self._next_tid += 1
        ctx = TaskContext(tid=tid, name=name or f"task{tid}", machine=self.machines[machine_name])
        self._tasks[tid] = ctx
        self._gens[tid] = program
        self.sim.schedule(0.0, lambda: self._step(tid, None))
        return tid

    def task(self, tid: int) -> TaskContext:
        """The :class:`TaskContext` of a spawned task."""
        return self._tasks[tid]

    @property
    def tasks(self) -> dict[int, TaskContext]:
        return self._tasks

    def _log(self, kind: str, detail: str) -> None:
        if self.tracing:
            self.trace.append((self.sim.now, kind, detail))

    # -- the scheduler ---------------------------------------------------------
    def _step(self, tid: int, value: Any) -> None:
        ctx = self._tasks[tid]
        if ctx.dead or ctx.finished:
            return  # a crashed machine's tasks never run again
        gen = self._gens[tid]
        try:
            req = gen.send(value)
        except StopIteration as stop:
            ctx.finished = True
            ctx.result = stop.value
            self._log("finish", ctx.name)
            return
        self._dispatch(tid, req)

    def _dispatch(self, tid: int, req: Any) -> None:
        ctx = self._tasks[tid]
        if isinstance(req, Compute):
            slowdown = self.thrash.slowdown(req.working_set_mb, ctx.machine.memory_mb)
            duration = req.units * self.sec_per_work_unit / ctx.machine.speed * slowdown
            ctx.compute_seconds += duration
            ctx.units_computed += req.units
            self._log("compute", f"{ctx.name} {req.units:.0f}u {duration:.3f}s x{slowdown:.2f}")
            start, end = self._cpus[ctx.machine.name].acquire(
                duration, lambda s, e: self._step(tid, None)
            )
            if self.tracing:
                self.events.append(("compute", ctx.machine.name, ctx.name, start, end))
        elif isinstance(req, Send):
            if req.dst not in self._tasks:
                raise KeyError(f"send to unknown tid {req.dst}")
            msg = Message(src=tid, tag=req.tag, payload=req.payload, nbytes=req.nbytes)
            self._log("send", f"{ctx.name} -> {self._tasks[req.dst].name} {req.tag} {req.nbytes}B")

            def delivered(msg=msg, dst=req.dst, sender=tid):
                self._deliver(dst, msg)
                self._step(sender, None)

            if self.tracing:
                wire = self.ethernet.transfer_time(req.nbytes)
                start = self.ethernet._medium.available_at
                self.events.append(
                    (
                        "send",
                        ctx.name,
                        self._tasks[req.dst].name,
                        req.tag,
                        req.nbytes,
                        start,
                        start + wire,
                    )
                )
            self.ethernet.transmit(req.nbytes, delivered)
        elif isinstance(req, Recv):
            idx = self._find_message(ctx, req.tag)
            if idx is not None:
                msg = ctx.mailbox[idx]
                del ctx.mailbox[idx]
                self.sim.schedule(0.0, lambda: self._step(tid, msg))
            else:
                ctx.blocked = True
                ctx.waiting_tag = req.tag
                ctx.wait_seq += 1
                if req.timeout is not None:
                    if req.timeout < 0:
                        raise ValueError("Recv timeout must be non-negative")
                    seq = ctx.wait_seq

                    def expire(tid=tid, seq=seq):
                        c = self._tasks[tid]
                        if c.blocked and c.wait_seq == seq and not c.dead:
                            c.blocked = False
                            c.waiting_tag = None
                            self._log("recv-timeout", c.name)
                            self._step(tid, None)

                    self.sim.schedule(req.timeout, expire)
        elif isinstance(req, WriteFile):
            duration = req.nbytes / (ctx.machine.disk_mb_per_s * 1e6)
            self._log("write", f"{ctx.name} {req.nbytes}B {duration:.3f}s")
            start, end = self._disks[ctx.machine.name].acquire(
                duration, lambda s, e: self._step(tid, None)
            )
            if self.tracing:
                self.events.append(("write", ctx.machine.name, ctx.name, start, end))
        elif isinstance(req, Sleep):
            if req.dt < 0:
                raise ValueError("Sleep.dt must be non-negative")
            self.sim.schedule(req.dt, lambda: self._step(tid, None))
        else:
            raise TypeError(f"task {ctx.name!r} yielded unknown request {req!r}")

    @staticmethod
    def _find_message(ctx: TaskContext, tag: str | None) -> int | None:
        for i, msg in enumerate(ctx.mailbox):
            if tag is None or msg.tag == tag:
                return i
        return None

    def _deliver(self, dst: int, msg: Message) -> None:
        ctx = self._tasks[dst]
        if ctx.dead:
            self._log("drop", f"message to dead task {ctx.name}")
            return
        ctx.mailbox.append(msg)
        if ctx.blocked:
            idx = self._find_message(ctx, ctx.waiting_tag)
            if idx is not None:
                m = ctx.mailbox[idx]
                del ctx.mailbox[idx]
                ctx.blocked = False
                ctx.waiting_tag = None
                self.sim.schedule(0.0, lambda: self._step(dst, m))

    # -- failures -----------------------------------------------------------
    def fail_machine(self, machine_name: str, at_time: float) -> None:
        """Crash a workstation at virtual time ``at_time``.

        Every task placed on it dies permanently: in-flight computations
        never complete, queued messages to its tasks are dropped, and it
        never sends again.  This is the failure model the deadline-sweeping
        master (see :class:`repro.sched.sim.SimTransport`) must survive.
        """
        if machine_name not in self.machines:
            raise KeyError(f"unknown machine {machine_name!r}")

        def crash():
            for ctx in self._tasks.values():
                if ctx.machine.name == machine_name and not ctx.finished:
                    ctx.dead = True
                    ctx.blocked = False
            self._log("crash", machine_name)

        self.sim.schedule_at(at_time, crash)

    # -- running ---------------------------------------------------------------
    def run(self) -> float:
        """Run to completion; returns the final virtual time.

        Raises :class:`DeadlockError` if live tasks remain blocked when the
        event queue drains (a protocol bug in the master/worker programs).
        Dead tasks (crashed machines) are exempt.
        """
        end = self.sim.run()
        stuck = [c for c in self._tasks.values() if not c.finished and not c.dead]
        if stuck:
            raise DeadlockError(
                "simulation drained with blocked tasks: "
                + ", ".join(f"{c.name}(waiting tag={c.waiting_tag!r})" for c in stuck)
            )
        return end

    def results(self) -> dict[str, Any]:
        """Task name -> returned value."""
        return {c.name: c.result for c in self._tasks.values()}

    def cpu_busy_seconds(self) -> dict[str, float]:
        """Per-machine CPU busy time (for utilization/load-balance metrics)."""
        return {name: cpu.total_busy for name, cpu in self._cpus.items()}
