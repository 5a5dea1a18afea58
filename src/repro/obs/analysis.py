"""Post-hoc utilization analysis: where did the time go on the NOW?

The paper's load-balance story (Table 1, Figs. 4-5) is a claim about
idle lanes: static sequence division strands fast workers while the
slowest finishes its range, frame/demand-driven division keeps every
lane busy until the tail.  The numbers are :class:`~repro.telemetry.RunFold`
views (the same records whether the run was a real TCP farm, a local
process pool, or a virtual-clock simulation); this module is their
offline spelling and their text:

* :func:`worker_timelines` / :func:`utilization_report` —
  ``RunFold.of(events)``'s ``timelines()`` / ``utilization()``.
* :func:`format_utilization` — the human-readable report with one Gantt
  lane per worker.
* :func:`compare_division` — the sequence-vs-frame(-or-demand) division
  contrast: aggregate idle %, lane balance, and which scheme won.
* :func:`stitch_blackbox` — a stream *transform* (dump + stream -> merged
  stream), applied before any fold.
"""

from __future__ import annotations

from ..cluster.timeline import gantt_lane
from ..telemetry import RunFold
from ..telemetry.report import UtilizationReport, WorkerTimeline

__all__ = [
    "WorkerTimeline",
    "UtilizationReport",
    "stitch_blackbox",
    "worker_timelines",
    "utilization_report",
    "format_utilization",
    "compare_division",
]

#: Record types a black-box dump can contribute to a merged trace (wire
#: notes and the dump's own meta header are post-mortem-only detail).
_TELEMETRY_TYPES = frozenset({"span", "event", "counter", "gauge", "histogram"})


def stitch_blackbox(events, dump_records, t_offset: float = 0.0):
    """Merge a victim's flight-recorder dump into a run's event stream.

    A worker's ring holds both records it already shipped in RESULT
    buffers (absorbed into ``events`` long ago) and its final seconds —
    unshipped records plus spans synthesized open at the moment of death.
    Only the latter are new: spans are deduplicated by span id (globally
    unique by construction — worker sessions namespace their ids), other
    records by ``(type, name, t)`` after the clock correction.

    ``t_offset`` is the same per-worker skew the master applied when
    absorbing the victim's live buffers (``-conn.offset``), so the
    stitched records land on the master's time axis and the victim's last
    spans line up with the loss that ended them.

    Returns ``(merged, n_added)`` — a new list; ``events`` is untouched.
    """
    merged = list(events)
    have_spans = {rec.get("span") for rec in merged if rec.get("type") == "span"}
    have_points = {
        (rec.get("type"), rec.get("name"), rec.get("t"))
        for rec in merged
        if rec.get("type") != "span"
    }
    n_added = 0
    for rec in dump_records:
        if rec.get("type") not in _TELEMETRY_TYPES:
            continue
        rec = dict(rec)
        if t_offset and "t" in rec:
            rec["t"] = rec["t"] + t_offset
        if rec.get("type") == "span":
            sid = rec.get("span")
            if sid in have_spans:
                continue
            have_spans.add(sid)
        else:
            key = (rec.get("type"), rec.get("name"), rec.get("t"))
            if key in have_points:
                continue
            have_points.add(key)
        merged.append(rec)
        n_added += 1
    return merged, n_added


def worker_timelines(events) -> dict[str, WorkerTimeline]:
    """Per-worker timelines (``task`` + ``obs.flight`` spans) of an event list."""
    return RunFold.of(events).timelines()


def utilization_report(events, straggler_z: float = 2.0) -> UtilizationReport:
    """The :class:`UtilizationReport` of an event list."""
    return RunFold.of(events).utilization(straggler_z)


def format_utilization(rep: UtilizationReport, gantt_width: int = 60) -> str:
    """Render the report: summary, per-lane table, Gantt chart."""
    lines = [
        f"Utilization report — engine={rep.engine or '?'} mode={rep.mode or '?'} "
        f"workload={rep.workload or '?'}",
        f"  window {rep.wall:.3f}s · {rep.n_workers} workers · {rep.n_frames} frames"
        + (f" · {rep.n_lost} worker losses" if rep.n_lost else ""),
        f"  aggregate idle {100 * rep.idle_frac:.1f}% · lane balance {rep.balance:.2f}"
        + (
            f" · recompute fraction {100 * rep.recompute_frac:.1f}%"
            if rep.recompute_frac is not None
            else ""
        ),
        "",
        f"  {'worker':<16} {'busy s':>8} {'idle s':>8} {'util %':>7} "
        f"{'tasks':>5} {'comms s':>8} {'z':>6}",
    ]
    for w in rep.workers:
        flag = "  << straggler" if w["straggler"] else ""
        lines.append(
            f"  {w['worker']:<16} {w['busy']:>8.3f} {w['idle']:>8.3f} "
            f"{100 * w['util']:>6.1f}% {w['n_tasks']:>5} {w['comms']:>8.3f} "
            f"{w['z']:>+6.2f}{flag}"
        )
    lines.append("")
    for w in rep.workers:
        busy = [(s0 - rep.t0, s1 - rep.t0) for s0, s1 in w["segments"]]
        lane = gantt_lane(busy, rep.wall, gantt_width, shades=((0.0, "#"),), blank=".")
        lines.append(f"  {w['worker']:<16} |{lane}|")
    return "\n".join(lines)


def compare_division(reports: dict[str, UtilizationReport]) -> str:
    """The paper's division comparison over >= 2 runs of the same scene.

    Pass ``{"sequence": rep_a, "frame": rep_b, ...}``; returns a table of
    aggregate idle % / balance per scheme and names the one that keeps
    the lanes busiest — the event-data-only reproduction of the paper's
    sequence-vs-frame-division contrast.
    """
    if len(reports) < 2:
        raise ValueError("compare_division needs at least two runs to contrast")
    lines = [
        f"Division comparison ({len(reports)} runs)",
        f"  {'scheme':<12} {'wall s':>8} {'idle %':>7} {'balance':>8} {'stragglers':>10}",
    ]
    for label in sorted(reports):
        rep = reports[label]
        lines.append(
            f"  {label:<12} {rep.wall:>8.3f} {100 * rep.idle_frac:>6.1f}% "
            f"{rep.balance:>8.2f} {len(rep.stragglers):>10}"
        )
    best = min(reports, key=lambda k: reports[k].idle_frac)
    worst = max(reports, key=lambda k: reports[k].idle_frac)
    gap = reports[worst].idle_frac - reports[best].idle_frac
    lines.append(
        f"  -> '{best}' keeps lanes busiest "
        f"({100 * gap:.1f} pp less idle than '{worst}')"
    )
    return "\n".join(lines)
