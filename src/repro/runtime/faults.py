"""Deterministic fault injection for the real render farm.

The paper's NOW is built from desktops that get rebooted, unplugged and
slowed down by their owners.  The cluster simulator injects machine
failures at virtual times; this module does the moral equivalent for the
*real* worker processes of :class:`~repro.runtime.local.LocalRenderFarm`:
a :class:`FaultPlan` travels (pickled) to every worker, which consults it
before and after computing a task and deterministically misbehaves.

Fault kinds
-----------
``crash``
    The worker process dies abruptly (``os._exit``), exactly like a
    machine losing power.  The supervisor sees a broken pool, rebuilds
    it and loses every dispatch that was in flight on it.
``hang``
    The worker sleeps for ``hang_seconds`` before computing — a machine
    that is swapping or whose owner just launched a compile job.  The
    supervisor's per-task deadline declares it lost; if it eventually
    finishes anyway (a *false positive*), the late completion is dropped.
``raise``
    The task raises :class:`FaultInjected` — a software failure inside
    an otherwise healthy worker.
``corrupt``
    The task returns its result with NaNs smeared into the pixel data —
    caught by the supervisor's output-validity check before assembly.

Faults are keyed by ``(task_index, attempt)`` — the unit's ordinal (the
order of its first dispatch) and its 0-based dispatch count — so every
recovery path is exercisable and every retry can be made to succeed (or
not).  Crash and hang faults are only honoured inside sandboxed *process*
workers: a thread worker or the in-process serial fallback skips them
rather than taking the master down with it.

The TCP farm's workers are daemons, not pool slots, so its drills are
keyed by worker instead (:class:`WorkerKill`, which
:class:`~repro.net.master.TcpTransport` turns into the daemon's
``--die-after*`` flag).  One plan can carry both kinds; each transport
honours the entries addressed to it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["FaultInjected", "FaultSpec", "WorkerKill", "FaultPlan", "corrupt_result"]


class FaultInjected(RuntimeError):
    """Raised by a ``raise``-kind fault inside a worker."""


_KINDS = ("crash", "hang", "raise", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One planned misbehaviour: ``kind`` fires when ``task_index`` is
    executed on any attempt number listed in ``attempts``."""

    kind: str
    task_index: int
    attempts: tuple[int, ...] = (0,)
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")

    def matches(self, task_index: int, attempt: int) -> bool:
        return task_index == self.task_index and attempt in self.attempts


@dataclass(frozen=True)
class WorkerKill:
    """One planned daemon death: TCP worker number ``worker`` (spawn order)
    hard-exits after ``after`` of ``unit`` — ``"assignments"`` received
    (it dies on the next one), ``"frames"`` rendered (it dies *inside* an
    assignment, task span still open; counted off telemetry ``frame``
    events, so the run needs telemetry) or shard ``"rays"`` requests served."""

    worker: int
    after: int
    unit: str = "assignments"

    def __post_init__(self) -> None:
        if self.unit not in ("assignments", "frames", "rays"):
            raise ValueError(f"unknown kill unit {self.unit!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of worker faults."""

    faults: tuple[FaultSpec | WorkerKill, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- convenience constructors ---------------------------------------------
    @staticmethod
    def crash(task_index: int, attempts: tuple[int, ...] = (0,)) -> "FaultSpec":
        return FaultSpec("crash", task_index, attempts)

    @staticmethod
    def hang(
        task_index: int, attempts: tuple[int, ...] = (0,), hang_seconds: float = 3600.0
    ) -> "FaultSpec":
        return FaultSpec("hang", task_index, attempts, hang_seconds)

    @staticmethod
    def raising(task_index: int, attempts: tuple[int, ...] = (0,)) -> "FaultSpec":
        return FaultSpec("raise", task_index, attempts)

    @staticmethod
    def corrupting(task_index: int, attempts: tuple[int, ...] = (0,)) -> "FaultSpec":
        return FaultSpec("corrupt", task_index, attempts)

    kill_worker = WorkerKill

    # -- worker-side protocol --------------------------------------------------
    def kills(self) -> list[WorkerKill]:
        """The daemon deaths planned."""
        return [f for f in self.faults if isinstance(f, WorkerKill)]

    def lookup(self, task_index: int, attempt: int) -> FaultSpec | None:
        for f in self.faults:
            if isinstance(f, FaultSpec) and f.matches(task_index, attempt):
                return f
        return None

    def apply_before(self, task_index: int, attempt: int, disruptive_ok: bool) -> None:
        """Consulted before the task computes.  ``disruptive_ok`` is True
        only in a sandboxed process worker — threads and the serial
        fallback must not crash or stall the master."""
        f = self.lookup(task_index, attempt)
        if f is None:
            return
        if f.kind == "crash" and disruptive_ok:
            os._exit(3)
        elif f.kind == "hang" and disruptive_ok:
            time.sleep(f.hang_seconds)
        elif f.kind == "raise":
            raise FaultInjected(
                f"injected failure in task {task_index} (attempt {attempt})"
            )

    def apply_after(self, task_index: int, attempt: int, result):
        """Consulted after the task computes; may corrupt the result."""
        f = self.lookup(task_index, attempt)
        if f is not None and f.kind == "corrupt":
            return corrupt_result(result)
        return result


def corrupt_result(result):
    """Smear NaNs into the first float array of a task result tuple.

    Models a worker returning garbage pixels (bad RAM, truncated
    transfer); generic over the farm's per-mode result layouts because it
    only needs to defeat the supervisor's finite-value check.
    """
    from ..buffers import FrameRef

    if not isinstance(result, tuple):
        return result
    out = list(result)
    for i, item in enumerate(out):
        if isinstance(item, FrameRef):
            # Shared-memory result: the garbage lands in the segment
            # itself — exactly what a worker with bad RAM would ship.
            def smear(view: np.ndarray) -> None:
                if np.issubdtype(view.dtype, np.floating):
                    view.reshape(-1)[: max(1, view.size // 16)] = np.nan

            item.mutate(smear)
            break
        if isinstance(item, np.ndarray) and np.issubdtype(item.dtype, np.floating):
            bad = item.copy()
            bad.reshape(-1)[: max(1, bad.size // 16)] = np.nan
            out[i] = bad
            break
    return tuple(out)
