"""Report types and the Table-1-style text rendering of a run.

The paper's Table 1 is the template: total rays (by kind), how much work
frame coherence avoided (computed vs copied pixels), and how well the
machines were used (per-worker utilization).  :class:`TelemetryReport`
and :class:`UtilizationReport` are what :class:`~repro.telemetry.RunFold`'s
``report()`` / ``utilization()`` views return — from a live run or from a
finished (or crashed) run directory's JSONL log alike:

``python -m repro telemetry <run_dir>``
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "TelemetryReport",
    "UtilizationReport",
    "WorkerTimeline",
    "read_events",
    "format_report",
]


def read_events(path: str | Path) -> list[dict]:
    """Load an events.jsonl file (a run directory is accepted directly)."""
    p = Path(path)
    if p.is_dir():
        p = p / "events.jsonl"
    if not p.exists():
        raise FileNotFoundError(f"no event log at {p}")
    events = []
    with open(p, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


@dataclass
class TelemetryReport:
    """Aggregated view of one run's event log."""

    engine: str = "?"
    workload: str = "?"
    mode: str = "?"
    n_frames: int = 0
    width: int = 0
    height: int = 0
    n_workers: int = 0
    wall_time: float = 0.0
    rays: dict[str, int] = field(default_factory=dict)  # kind -> count
    computed_pixels: int = 0
    copied_pixels: int = 0
    n_tasks: int = 0
    per_frame: dict[int, dict[str, int]] = field(default_factory=dict)
    workers: list[dict] = field(default_factory=list)
    recovery: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    losses: list[dict] = field(default_factory=list)  # net.worker.lost events
    attempts: dict[str, int] = field(default_factory=dict)  # outcome -> count
    #: ``run.start`` records in the stream (a resumed run dir appends a run
    #: to the same ``events.jsonl``); the report describes the last, ``run_id``.
    n_runs: int = 1
    run_id: str = ""

    @property
    def computed_fraction(self) -> float:
        total = self.computed_pixels + self.copied_pixels
        return self.computed_pixels / total if total else 0.0


@dataclass
class WorkerTimeline:
    """One worker lane: busy intervals on the run's time axis."""

    worker: str
    segments: list = field(default_factory=list)  # (t0, t1) busy intervals
    n_tasks: int = 0
    rays: int = 0
    flight_time: float = 0.0  # enclosing flight-span seconds (dispatch->accept)

    @property
    def busy(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.segments)

    @property
    def finish(self) -> float:
        return max((t1 for _t0, t1 in self.segments), default=0.0)

    @property
    def start(self) -> float:
        return min((t0 for t0, _t1 in self.segments), default=0.0)

    @property
    def comms(self) -> float:
        """Dispatch/result overhead: flight time not spent rendering.
        Zero when the run wasn't traced with flight spans."""
        return max(0.0, self.flight_time - self.busy)


@dataclass
class UtilizationReport:
    """The load-balance analysis of one run, derived from events alone."""

    engine: str = ""
    mode: str = ""
    workload: str = ""
    n_frames: int = 0
    n_workers: int = 0
    t0: float = 0.0
    t1: float = 0.0
    workers: list = field(default_factory=list)  # per-worker row dicts
    recompute_frac: float | None = None
    rays_total: int = 0
    n_lost: int = 0
    straggler_z: float = 2.0

    @property
    def wall(self) -> float:
        return max(0.0, self.t1 - self.t0)

    @property
    def idle_frac(self) -> float:
        """Aggregate idle fraction: 1 - sum(busy) / (n_lanes * wall) —
        the paper's "processors standing idle" number."""
        if not self.workers or self.wall <= 0:
            return 0.0
        busy = sum(w["busy"] for w in self.workers)
        return max(0.0, 1.0 - busy / (len(self.workers) * self.wall))

    @property
    def balance(self) -> float:
        """min(busy)/max(busy) across lanes: 1.0 = perfectly balanced."""
        if not self.workers:
            return 1.0
        top = max(w["busy"] for w in self.workers)
        return (min(w["busy"] for w in self.workers) / top) if top > 0 else 1.0

    @property
    def stragglers(self) -> list[str]:
        return [w["worker"] for w in self.workers if w["straggler"]]


_KINDS = ("camera", "reflected", "refracted", "shadow", "total")


def _fmt_int(n: int) -> str:
    return f"{n:,}"


def format_report(rep: TelemetryReport, per_frame: bool = False) -> str:
    """The Table-1-style text rendering of a run report."""
    lines = []
    lines.append(
        f"== telemetry report: {rep.workload} "
        f"[{rep.engine}/{rep.mode}] "
        f"{rep.n_frames} frames @ {rep.width}x{rep.height}, {rep.n_workers} workers =="
    )
    if rep.n_runs > 1:
        lines.append(f"run {rep.n_runs} of {rep.n_runs} in this log (run_id {rep.run_id})")
    lines.append("")
    lines.append("rays by kind")
    for kind in _KINDS:
        lines.append(f"  {kind:<10} {_fmt_int(rep.rays.get(kind, 0)):>14}")
    lines.append("")
    total_px = rep.computed_pixels + rep.copied_pixels
    pct = 100.0 * rep.computed_fraction
    lines.append("pixels")
    lines.append(f"  computed   {_fmt_int(rep.computed_pixels):>14}  ({pct:.1f}% of {_fmt_int(total_px)})")
    lines.append(f"  copied     {_fmt_int(rep.copied_pixels):>14}")
    lines.append("")
    if rep.workers:
        lines.append("per-worker utilization")
        lines.append(f"  {'worker':<18} {'busy(s)':>10} {'tasks':>6} {'util%':>7}")
        for w in rep.workers:
            lines.append(
                f"  {w['worker']:<18} {w['busy']:>10.3f} {w['n_tasks']:>6} "
                f"{100.0 * w['utilization']:>6.1f}%"
            )
        lines.append("")
    if rep.recovery:
        parts = [f"{rep.recovery[k]} {k}" for k in sorted(rep.recovery)]
        lines.append(f"recovery events: {', '.join(parts)}")
        lines.append("")
    if rep.losses:
        by: dict[tuple[str, str], int] = {}
        for loss in rep.losses:
            key = (loss["worker"], loss["reason"])
            by[key] = by.get(key, 0) + 1
        lines.append("worker losses")
        for (worker, reason), n in sorted(by.items()):
            count = f"  x{n}" if n > 1 else ""
            lines.append(f"  {worker:<18} {reason}{count}")
        lines.append("")
    n_bad = sum(n for k, n in rep.attempts.items() if k != "ok")
    if n_bad:
        parts = [f"{rep.attempts[k]} {k}" for k in sorted(rep.attempts)]
        lines.append(f"task attempts: {', '.join(parts)}")
        lines.append("")
    if rep.counters:
        lines.append("counters")
        for name in sorted(rep.counters):
            lines.append(f"  {name:<28} {_fmt_int(int(rep.counters[name])):>14}")
        lines.append("")
    if per_frame and rep.per_frame:
        lines.append("per-frame")
        lines.append(f"  {'frame':>5} {'computed':>10} {'copied':>10} {'rays':>12}")
        for f in sorted(rep.per_frame):
            row = rep.per_frame[f]
            lines.append(
                f"  {f:>5} {row['n_computed']:>10} {row['n_copied']:>10} "
                f"{row['rays_total']:>12}"
            )
        lines.append("")
    lines.append(f"tasks: {rep.n_tasks}    wall time: {rep.wall_time:.3f} s")
    return "\n".join(lines)
