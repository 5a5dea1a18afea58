"""The farm's contract: its options, its recovery rule, its counters — declared once.

Everything a caller can set on the farm is a field of :class:`FarmOptions`:
:class:`~repro.api.RenderRequest` inherits them, the CLI's flags are named
after them, :class:`~repro.runtime.local.LocalRenderFarm` takes them as
keywords and hands the one object to its transport unopened.  Every
master runs under one :class:`RecoveryOptions` and counts its losses in one
:class:`RecoveryCounts`.  The books are the
:class:`~repro.sched.master.MasterCore`'s; the words it and its shells
speak — :data:`LOSSES`, a :class:`Flight`, the :class:`Close` and
:class:`Stop` actions — are declared here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

from ..telemetry import NULL

__all__ = [
    "LOSSES",
    "Close",
    "FarmOptions",
    "Flight",
    "RecoveryCounts",
    "RecoveryOptions",
    "RecoveryView",
    "Stop",
    "SupervisorError",
    "TaskAttempt",
    "deadline",
]

#: The adaptive per-unit deadline: this many times the slowest unit seen ...
TIMEOUT_FACTOR = 3.0
#: ... plus this many seconds of scheduling slack.
TIMEOUT_MARGIN = 1.0


def deadline(durations) -> float | None:
    """Seconds a unit may run before its worker is presumed lost, given
    the ``durations`` of the units completed so far (``None`` while there
    are none).  The simulator's ``default_worker_timeout`` applies the
    same two constants to its modelled worst case."""
    return TIMEOUT_FACTOR * max(durations) + TIMEOUT_MARGIN if durations else None


@dataclass(frozen=True)
class RecoveryOptions:
    """What a master needs to know to give up on a dispatch.

    ``max_attempts`` dispatches of one unit are allowed (then the pool
    degrades to in-process execution and the TCP master fails the run); a
    fixed ``task_timeout`` in seconds replaces the adaptive
    :func:`deadline` (the simulator's ``worker_timeout`` is one);
    ``startup_timeout`` covers the window before any unit has completed
    (``None``: wait patiently).
    """

    max_attempts: int = 3
    task_timeout: float | None = None
    startup_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def deadline(self, durations) -> float | None:
        if self.task_timeout is not None:
            return self.task_timeout
        return deadline(durations) if durations else self.startup_timeout


class RecoveryCounts(dict):
    """How often a run had to recover, by kind.  The master that did the
    recovering fills it in and the same object surfaces as
    ``RenderResult.recovery`` — one key set whatever the transport."""

    def __init__(self) -> None:
        super().__init__(retries=0, timeouts=0, crashes=0, invalid=0, degraded=0)


class RecoveryView:
    """``n_<counter>`` read access to a result's ``recovery`` record."""

    recovery: RecoveryCounts
    n_retries = property(lambda self: self.recovery["retries"])
    n_timeouts = property(lambda self: self.recovery["timeouts"])
    n_crashes = property(lambda self: self.recovery["crashes"])
    n_invalid = property(lambda self: self.recovery["invalid"])
    n_degraded = property(lambda self: self.recovery["degraded"])


class SupervisorError(RuntimeError):
    """A unit could not be completed: its attempts are spent and there is
    no in-process fallback (or that failed too), the pool kept dying, or
    the master stalled — nothing in flight and the policy handing out none."""


@dataclass(frozen=True)
class TaskAttempt:
    """One dispatch of one unit and how it ended.

    ``task_index`` is the unit's ordinal — the order of its first dispatch,
    which on a fresh static run is its index in the unit list — and
    ``attempt`` the unit's 0-based dispatch count: the numbers a
    :class:`~repro.runtime.faults.FaultPlan` is keyed by.
    """

    task_index: int
    attempt: int
    outcome: str  # ok | degraded-ok | crash | timeout | error | invalid
    duration: float
    error: str = ""
    started: float = 0.0  # seconds after the master started


#: Why a dispatch was lost -> (its :class:`TaskAttempt` outcome, the
#: :class:`RecoveryCounts` key it counts under).  The one loss taxonomy:
#: ``eof`` is a worker process gone (a broken pool, a closed socket),
#: ``deadline`` / ``heartbeat`` a worker presumed hung or silent, ``error``
#: a task that raised or a peer whose message would not parse, ``invalid`` a
#: result the validator rejected.
LOSSES = {
    "eof": ("crash", "crashes"),
    "deadline": ("timeout", "timeouts"),
    "heartbeat": ("timeout", "timeouts"),
    "error": ("error", "crashes"),
    "invalid": ("invalid", "invalid"),
}


@dataclass
class Flight:
    """One dispatch: which lane holds which unit since when (the core's
    clock), and the materialized task arguments.  ``degraded`` marks the
    dispatch after a unit's attempts are spent, which runs in-process."""

    lane: Any
    assignment: Any
    unit: int
    attempt: int
    t0: float
    args: Any
    degraded: bool = False


@dataclass(frozen=True)
class Close:
    """End ``lane`` (for ``reason``, a :data:`LOSSES` key) and report it
    through :meth:`MasterCore.lost <repro.sched.master.MasterCore.lost>`."""

    lane: Any
    reason: str


@dataclass(frozen=True)
class Stop:
    """``lane`` will get no more work: tell its worker to exit."""

    lane: Any


@dataclass(frozen=True)
class FarmOptions:
    """Every option of a farm run (the schedules, unit lists, transports
    and executors themselves are described in :mod:`repro.runtime.local`).

    Parameters
    ----------
    n_workers:
        Degree of parallelism; ``None`` is the CPU count (capped at 8).
    mode:
        The unit list ``schedule="static"`` or ``"demand"`` dispatches:
        ``"frame"`` (each block over its whole shot), ``"sequence"``
        (``n_workers`` frame ranges) or ``"hybrid"``.
    schedule:
        ``"static"`` or its spelling ``"demand"`` (the same policy over the
        list ``mode`` names), or ``"adaptive"``.  All three run the
        :mod:`repro.sched` policies — the same state machines the cluster
        simulator replays; the fixed lists can be checkpointed (see
        :meth:`LocalRenderFarm.render`), the adaptive one cannot.
    transport:
        ``"process"`` (the supervised pool on this host) or ``"tcp"`` (a
        :class:`~repro.net.master.MasterServer` on 127.0.0.1 driving
        ``n_workers`` spawned daemons).  Every schedule runs on either.
    executor:
        ``"process"``, ``"thread"`` or ``"serial"``: what the process
        transport's pool is made of (unused on ``"tcp"``).
    blackbox_dir:
        Flight-recorder dump directory for the TCP master and its
        spawned daemons; worker-loss events point at the victim's
        ``blackbox_worker_<pid>.jsonl`` here (DESIGN §17).
    segment_frames:
        Frames per dispatched segment for ``schedule="adaptive"``.
        Default: 1 on the thread/serial executors and on tcp (segments
        continue the cached renderer, preserving coherence), coarser on
        the process executor (each segment renders fresh; fewer, bigger
        tasks).
    block_w, block_h:
        Frame-division block size (defaults to a 4x3 tiling like the paper's
        80x80-of-320x240).
    grid_resolution:
        Voxel grid resolution of the coherence map.
    shadow_coherence:
        Render with :class:`~repro.coherence.CoherentRenderer`'s
        ``shadow_coherence`` on, which also reuses primary shadow rays.
    frames_per_chunk:
        Frames per unit of the ``hybrid`` list (default: half the animation).
    max_attempts, task_timeout:
        The run's :class:`RecoveryOptions`: dispatches per unit, and a
        fixed per-unit deadline in seconds (default ``None`` adapts it,
        see :func:`deadline`; the simulator's ``-ft`` strategies take it as
        their ``worker_timeout``).
    degrade_serial:
        Pool only: run a unit in-process after its attempts are exhausted
        instead of raising :class:`SupervisorError`.
    fault_plan:
        A :class:`~repro.runtime.faults.FaultPlan` of deterministic
        drills: per-task crash/hang/raise/corrupt faults for the pool,
        per-worker kills for the TCP daemons.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` session the run narrates into.
    profile_dir:
        cProfile every worker task into this directory.
    tile_px:
        Edge, in pixels (>= 1), of the tiles TCP workers cut each finished
        frame into; ``None`` (default) is the master's default edge.
        Unused off-TCP (a pool unit comes home whole).
    preview:
        A :class:`~repro.dfb.PreviewHub` to attach the run's
        :class:`~repro.dfb.FrameAssembler` to, so a status server can
        serve the partially composited frames while the run is live.
    on_tile, on_frame:
        Progress callbacks, fired as pixels land in the compositor.
        ``on_tile`` receives a :class:`~repro.dfb.TileEvent` per
        composited rectangle — a wire tile on TCP, one frame of an
        accepted unit's box on the pool, likewise for a unit loaded from
        a checkpoint spool — and ``on_frame`` a
        :class:`~repro.dfb.FrameEvent` when the rectangle that completes
        a frame lands: one contract on every transport.
    """

    n_workers: int | None = None
    mode: str = "frame"
    executor: str = "process"
    schedule: str = "static"
    transport: str = "process"
    blackbox_dir: str | Path | None = None
    segment_frames: int | None = None
    block_w: int | None = None
    block_h: int | None = None
    grid_resolution: int = 24
    shadow_coherence: bool = False
    frames_per_chunk: int | None = None
    max_attempts: int = 3
    task_timeout: float | None = None
    degrade_serial: bool = True
    fault_plan: Any = None
    telemetry: Any = NULL
    profile_dir: str | Path | None = None
    tile_px: int | None = None
    preview: Any = None
    on_tile: Callable | None = None
    on_frame: Callable | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("frame", "sequence", "hybrid"):
            raise ValueError("mode must be 'frame', 'sequence' or 'hybrid'")
        if self.executor not in ("process", "thread", "serial"):
            raise ValueError("executor must be 'process', 'thread' or 'serial'")
        if self.schedule not in ("static", "demand", "adaptive"):
            raise ValueError("schedule must be 'static', 'demand' or 'adaptive'")
        if self.transport not in ("process", "tcp"):
            raise ValueError("transport must be 'process' or 'tcp'")
        if self.tile_px is not None and int(self.tile_px) < 1:
            raise ValueError(f"tile_px must be None or >= 1, got {self.tile_px}")
        if self.n_workers is not None and int(self.n_workers) < 1:
            raise ValueError("n_workers must be >= 1")

    @classmethod
    def project(cls, source) -> dict:
        """``{field: value}`` read off any object that carries these fields
        (a :class:`~repro.api.RenderRequest`): keywords for the farm."""
        return {f.name: getattr(source, f.name) for f in fields(cls)}

    def resolved(self) -> "FarmOptions":
        """These options with each ``None`` that stands for a default
        filled in: the host's worker count, the null telemetry session."""
        fill: dict = {}
        if self.n_workers is None:
            fill["n_workers"] = min(os.cpu_count() or 2, 8)
        if self.telemetry is None:
            fill["telemetry"] = NULL
        return replace(self, **fill) if fill else self

    def recovery(self) -> RecoveryOptions:
        return RecoveryOptions(max_attempts=self.max_attempts, task_timeout=self.task_timeout)
