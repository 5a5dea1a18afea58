"""Overhead of the telemetry spine on a real render.

Instrumentation is worthless if it distorts the numbers it reports.  Two
bars, measured separately so each claim stays honest:

* **< 5 %** wall-time overhead with a bare in-memory sink — the spine
  itself (and effectively zero when disabled: the ``NULL`` path is one
  attribute test per call site);
* **< 8 %** with the full observability stack an operator actually runs:
  in-memory sink + JSONL sink writing every record to disk + the live
  :class:`~repro.telemetry.RunFold` (state, sketches and health in one
  sink) + an installed :class:`~repro.obs.FlightRecorder` tapping every
  record into its black-box ring.

The workload is the ``random_spheres`` stress scene — many small objects,
every frame dirty in patches — rendered through ``engine="animation"``, the
farm on one inline lane (the instrumentation-densest path: per-frame,
per-task and per-run hooks all fire in one process).

The estimator is the median, over nine interleaved pairs, of each pair's
overhead (instrumented / bare − 1), the two sides of a pair taken back to
back and in alternating order.  A shared machine's speed drifts by more
than the bounds within seconds, so two blocks of renders taken one after
the other cannot resolve them; a pair sees the same machine on both sides.
"""

from __future__ import annotations

import statistics
import time

from _bench_utils import write_result

from repro import api
from repro.obs import FlightRecorder
from repro.scenes import random_spheres_animation
from repro.telemetry import (
    InMemorySink,
    JsonlSink,
    RunFold,
    Telemetry,
    metrics_from_events,
    write_bench_json,
)

KW = dict(n_frames=6, width=96, height=72)
GRID = 16
PAIRS = 9


def _render(telemetry=None) -> float:
    anim = random_spheres_animation(**KW)
    t0 = time.perf_counter()
    api.render(workload=anim, engine="animation", grid_resolution=GRID,
               telemetry=telemetry if telemetry is not None else False)
    return time.perf_counter() - t0


def _pairs(make_telemetry, recorder=None) -> tuple[float, float, float, list[dict]]:
    """``(overhead, bare, instrumented, events)``: the median per-pair
    overhead, each side's median wall time, and one instrumented run's
    event log.  ``recorder`` is installed around each instrumented render."""
    _render()  # warm-up: the first render of a process pays its imports
    overheads, bare, instrumented, events = [], [], [], []
    for i in range(PAIRS):
        tel = make_telemetry(i)

        def traced() -> float:
            if recorder is not None:
                recorder.install(signals=False)
            try:
                return _render(tel)
            finally:
                if recorder is not None:
                    recorder.uninstall()

        if i % 2:
            t_tel = traced()
            t_bare = _render()
        else:
            t_bare = _render()
            t_tel = traced()
        tel.close()
        events = tel.sinks[0].events
        overheads.append(t_tel / t_bare - 1.0)
        bare.append(t_bare)
        instrumented.append(t_tel)
    return (statistics.median(overheads), statistics.median(bare),
            statistics.median(instrumented), events)


def test_telemetry_overhead_under_5_percent(results_dir):
    overhead, base, instrumented, events = _pairs(lambda _i: Telemetry(sinks=[InMemorySink()]))
    n_events = len(events)
    lines = [
        "telemetry overhead (stress scene, single-process engine)",
        f"  workload           random_spheres {KW['n_frames']}f @ {KW['width']}x{KW['height']}",
        f"  baseline           {base:.3f} s (median of {PAIRS} interleaved pairs)",
        f"  instrumented       {instrumented:.3f} s (median of {PAIRS}, "
        f"{n_events} events to in-memory sink)",
        f"  overhead           {100.0 * overhead:+.2f} % (median per-pair overhead)",
    ]
    write_result(results_dir, "telemetry_overhead.txt", "\n".join(lines))
    write_bench_json(
        results_dir,
        "telemetry_overhead",
        {**metrics_from_events(events), "wall_time": instrumented},
        extra={"baseline_wall_time": base, "overhead_pct": 100.0 * overhead},
    )
    assert n_events > 0
    assert overhead < 0.05, f"telemetry overhead {100 * overhead:.1f}% exceeds the 5% budget"


def test_full_obs_stack_overhead_under_8_percent(results_dir, tmp_path):
    """The stack an operator actually runs: memory + JSONL-to-disk + the
    run fold, with a flight recorder tapping every record."""
    overhead, base, full, events = _pairs(
        lambda i: Telemetry(
            sinks=[InMemorySink(), JsonlSink(tmp_path / f"events_{i}.jsonl"), RunFold()]
        ),
        recorder=FlightRecorder("bench", tmp_path),
    )
    lines = [
        "full observability stack overhead (memory + jsonl + fold + recorder)",
        f"  workload           random_spheres {KW['n_frames']}f @ {KW['width']}x{KW['height']}",
        f"  baseline           {base:.3f} s (median of {PAIRS} interleaved pairs)",
        f"  full stack         {full:.3f} s (median of {PAIRS}, {len(events)} events)",
        f"  overhead           {100.0 * overhead:+.2f} % (median per-pair overhead)",
    ]
    write_result(results_dir, "telemetry_overhead_full_stack.txt", "\n".join(lines))
    assert len(events) > 0
    assert (tmp_path / "events_0.jsonl").stat().st_size > 0  # jsonl really wrote
    assert overhead < 0.08, (
        f"full-stack overhead {100 * overhead:.1f}% exceeds the 8% budget"
    )
