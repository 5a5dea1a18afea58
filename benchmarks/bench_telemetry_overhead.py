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
"""

from __future__ import annotations

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
REPEATS = 5


def _render(telemetry=None) -> float:
    anim = random_spheres_animation(**KW)
    t0 = time.perf_counter()
    api.render(workload=anim, engine="animation", grid_resolution=GRID,
               telemetry=telemetry if telemetry is not None else False)
    return time.perf_counter() - t0


def _best(make_telemetry) -> tuple[float, list[dict]]:
    """Best-of-N wall time (noise floor), plus the event log of one run."""
    times, events = [], []
    for i in range(REPEATS):
        tel = make_telemetry(i)
        times.append(_render(tel))
        if tel is not None:
            tel.close()
            if tel.sinks:
                events = tel.sinks[0].events
    return min(times), events


def test_telemetry_overhead_under_5_percent(results_dir):
    base, _ = _best(lambda _i: None)
    instrumented, events = _best(lambda _i: Telemetry(sinks=[InMemorySink()]))
    n_events = len(events)
    overhead = (instrumented - base) / base
    lines = [
        "telemetry overhead (stress scene, single-process engine)",
        f"  workload           random_spheres {KW['n_frames']}f @ {KW['width']}x{KW['height']}",
        f"  baseline           {base:.3f} s (best of {REPEATS})",
        f"  instrumented       {instrumented:.3f} s (best of {REPEATS}, "
        f"{n_events} events to in-memory sink)",
        f"  overhead           {100.0 * overhead:+.2f} %",
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
    base, _ = _best(lambda _i: None)
    recorder = FlightRecorder("bench", tmp_path).install(signals=False)
    try:
        full, events = _best(
            lambda i: Telemetry(
                sinks=[
                    InMemorySink(),
                    JsonlSink(tmp_path / f"events_{i}.jsonl"),
                    RunFold(),
                ]
            )
        )
    finally:
        recorder.uninstall()
    overhead = (full - base) / base
    lines = [
        "full observability stack overhead (memory + jsonl + fold + recorder)",
        f"  workload           random_spheres {KW['n_frames']}f @ {KW['width']}x{KW['height']}",
        f"  baseline           {base:.3f} s (best of {REPEATS})",
        f"  full stack         {full:.3f} s (best of {REPEATS}, {len(events)} events)",
        f"  overhead           {100.0 * overhead:+.2f} %",
    ]
    write_result(results_dir, "telemetry_overhead_full_stack.txt", "\n".join(lines))
    assert len(events) > 0
    assert (tmp_path / "events_0.jsonl").stat().st_size > 0  # jsonl really wrote
    assert overhead < 0.08, (
        f"full-stack overhead {100 * overhead:.1f}% exceeds the 8% budget"
    )
