"""The telemetry spine: spans, sinks, schema, report, bench, profiling."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.telemetry import (
    CORE_EVENTS,
    EVENT_SCHEMA,
    NULL,
    REQUIRED_BENCH_METRICS,
    SCHEMA_VERSION,
    InMemorySink,
    JsonlSink,
    RunFold,
    SchemaError,
    Telemetry,
    VirtualClock,
    format_report,
    merge_profiles,
    metrics_from_events,
    profile_into,
    profile_summary,
    read_events,
    report_from_events,
    schema_of_events,
    validate_bench,
    validate_events,
    write_bench_json,
)


# -- core: spans, events, metrics ------------------------------------------------
def test_span_nesting_and_parent_ids():
    mem = InMemorySink()
    tel = Telemetry(sinks=[mem])
    with tel.span("outer", a=1):
        with tel.span("inner", b=2):
            pass
    # Inner closes (and is emitted) first.
    inner, outer = mem.events
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert outer["parent"] is None
    assert inner["parent"] == outer["span"]
    assert inner["span"] != outer["span"]


def test_span_timing_monotonic_and_contained():
    mem = InMemorySink()
    tel = Telemetry(sinks=[mem])
    with tel.span("outer"):
        with tel.span("inner"):
            sum(range(1000))
    inner, outer = mem.events
    for rec in (inner, outer):
        assert rec["dur"] >= 0.0
    # The inner span starts no earlier and ends no later than the outer one.
    assert inner["t"] >= outer["t"]
    assert inner["t"] + inner["dur"] <= outer["t"] + outer["dur"] + 1e-9


def test_span_handle_attrs_mutable_mid_span():
    mem = InMemorySink()
    tel = Telemetry(sinks=[mem])
    with tel.span("task", rays=0) as sp:
        sp.attrs["rays"] = 123
    assert mem.events[0]["attrs"]["rays"] == 123


def test_counters_accumulate_and_flush_once():
    mem = InMemorySink()
    tel = Telemetry(sinks=[mem])
    tel.counter("rays", 10)
    tel.counter("rays", 5)
    tel.counter("frames")
    assert tel.counters == {"rays": 15, "frames": 1}
    tel.flush_counters()
    recs = {r["name"]: r for r in mem.events}
    assert recs["rays"]["value"] == 15 and recs["rays"]["type"] == "counter"
    assert recs["frames"]["value"] == 1
    assert tel.counters == {}


def test_histogram_summarizes_on_flush():
    mem = InMemorySink()
    tel = Telemetry(sinks=[mem])
    for v in (3.0, 1.0, 2.0, 10.0):
        tel.histogram("task.duration", v)
    tel.flush_counters()
    (rec,) = mem.events
    assert rec["type"] == "histogram" and rec["value"] == 4
    assert rec["attrs"]["min"] == 1.0 and rec["attrs"]["max"] == 10.0
    assert rec["attrs"]["mean"] == pytest.approx(4.0)
    assert rec["attrs"]["p50"] == 3.0
    validate_events(mem.events)
    tel.close()  # second flush emits nothing new
    assert len(mem.events) == 1


def test_disabled_telemetry_emits_nothing():
    mem = InMemorySink()
    tel = Telemetry(sinks=[mem], enabled=False)
    tel.event("run.start")
    with tel.span("task") as sp:
        sp.attrs["x"] = 1  # handle still usable
    tel.counter("n")
    tel.flush_counters()
    tel.close()
    assert mem.events == []
    assert NULL.enabled is False


def test_virtual_clock_drives_span_durations():
    now = [10.0]
    tel = Telemetry(sinks=[mem := InMemorySink()], clock=VirtualClock(lambda: now[0]))
    with tel.span("task"):
        now[0] = 13.5
    rec = mem.events[0]
    assert rec["t"] == 10.0
    assert rec["dur"] == pytest.approx(3.5)


def test_absorb_round_trips_worker_events():
    worker = Telemetry(sinks=[wmem := InMemorySink()])
    worker.event("frame", frame=0, n_computed=10)
    payload = worker.serialize_events(wmem.events)
    master = Telemetry(sinks=[mmem := InMemorySink()])
    assert master.absorb(payload) == 1
    assert mmem.events[0]["attrs"] == {"frame": 0, "n_computed": 10}
    assert master.absorb("") == 0 and master.absorb(None) == 0


# -- sinks -----------------------------------------------------------------------
def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    tel = Telemetry(sinks=[JsonlSink(path)])
    tel.event("run.start", engine="test")
    with tel.span("task", rays=7):
        pass
    tel.counter("rays", 7)
    tel.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["type"] for r in lines] == ["event", "span", "counter"]
    assert lines[0]["attrs"]["engine"] == "test"
    # read_events accepts both the file and its directory.
    assert read_events(path) == lines
    assert read_events(tmp_path) == lines


# -- schema ----------------------------------------------------------------------
def test_validate_events_accepts_schema_and_rejects_drift():
    tel = Telemetry(sinks=[mem := InMemorySink()])
    tel.event("checkpoint", task=0, action="saved")
    validate_events(mem.events)

    tel.event("checkpoint", task=0)  # missing attr
    with pytest.raises(SchemaError):
        validate_events(mem.events)

    mem.events.pop()
    tel.event("checkpoint", task=0, action="saved", extra=1)  # stray attr
    with pytest.raises(SchemaError):
        validate_events(mem.events)


def test_schema_of_events_and_core_coverage():
    tel = Telemetry(sinks=[mem := InMemorySink()])
    tel.event("run.start", **{k: 0 for k in EVENT_SCHEMA["run.start"]})
    tel.event("run.end", **{k: 0 for k in EVENT_SCHEMA["run.end"]})
    schema = schema_of_events(mem.events)
    assert frozenset(schema["run.start"]) == frozenset(EVENT_SCHEMA["run.start"])
    assert set(CORE_EVENTS) >= {"run.start", "run.end"}

    tel.event("run.start", engine="x")  # same name, different keys
    with pytest.raises(SchemaError):
        schema_of_events(mem.events)


# -- report ----------------------------------------------------------------------
def _sample_events() -> list[dict]:
    """A deterministic two-worker farm run, as the spine would emit it."""
    tel = Telemetry(sinks=[mem := InMemorySink()], clock=VirtualClock(lambda: 0.0))
    tel.event(
        "run.start", engine="farm", workload="newton", n_frames=2,
        width=8, height=6, n_workers=2, mode="frame",
    )
    for w, frame in (("w1", 0), ("w2", 1)):
        tel.emit_span(
            "task", 0.0, 1.0, worker=w, mode="frame", frame0=frame,
            frame1=frame + 1, region=48, rays=100, n_computed=48, attempt=0,
        )
    tel.event(
        "frame", frame=0, n_computed=48, n_copied=0, rays_camera=60,
        rays_reflected=20, rays_refracted=10, rays_shadow=10, rays_total=100,
    )
    tel.event(
        "frame", frame=1, n_computed=8, n_copied=40, rays_camera=50,
        rays_reflected=25, rays_refracted=10, rays_shadow=15, rays_total=100,
    )
    tel.event("worker", worker="w1", busy=1.0, n_tasks=1, utilization=0.5)
    tel.event("worker", worker="w2", busy=1.5, n_tasks=1, utilization=0.75)
    tel.event("recovery", kind="timeout", task=1, attempt=0, duration=0.5, worker="w2")
    tel.event(
        "run.end", wall_time=2.0, computed_pixels=56, copied_pixels=40,
        n_tasks=2, n_workers=2, rays_camera=110, rays_reflected=45,
        rays_refracted=20, rays_shadow=25, rays_total=200,
    )
    tel.counter("intersect.tests", 4242)
    tel.flush_counters()
    validate_events(mem.events)
    return mem.events


def test_report_aggregates_run(assert_one_fold):
    assert_one_fold(_sample_events())
    rep = report_from_events(_sample_events())
    assert (rep.engine, rep.workload, rep.mode) == ("farm", "newton", "frame")
    assert rep.n_frames == 2 and rep.n_workers == 2
    assert rep.rays["total"] == 200 and rep.rays["camera"] == 110
    assert rep.computed_pixels == 56 and rep.copied_pixels == 40
    assert rep.n_tasks == 2
    assert rep.per_frame[1]["n_copied"] == 40
    assert rep.recovery == {"timeout": 1}
    assert rep.counters["intersect.tests"] == 4242
    assert rep.computed_fraction == pytest.approx(56 / 96)


def test_report_survives_missing_run_end(assert_one_fold):
    events = [e for e in _sample_events() if e["name"] != "run.end"]
    assert_one_fold(events)
    rep = report_from_events(events)
    # Totals rebuilt from the per-frame rows of the crashed run.
    assert rep.rays["total"] == 200
    assert rep.computed_pixels == 56 and rep.copied_pixels == 40


GOLDEN_REPORT = """\
== telemetry report: newton [farm/frame] 2 frames @ 8x6, 2 workers ==

rays by kind
  camera                110
  reflected              45
  refracted              20
  shadow                 25
  total                 200

pixels
  computed               56  (58.3% of 96)
  copied                 40

per-worker utilization
  worker                busy(s)  tasks   util%
  w1                      1.000      1   50.0%
  w2                      1.500      1   75.0%

recovery events: 1 timeout

counters
  intersect.tests                       4,242

per-frame
  frame   computed     copied         rays
      0         48          0          100
      1          8         40          100

tasks: 2    wall time: 2.000 s"""


def test_format_report_golden():
    rep = report_from_events(_sample_events())
    assert format_report(rep, per_frame=True) == GOLDEN_REPORT


def test_report_of_a_resumed_log_says_which_run_it_describes(assert_one_fold):
    """A resumed run dir appends a second run to one events.jsonl; the
    report describes the last and its header says so."""
    first = [dict(e, run="run-a") for e in _sample_events()]
    second = [dict(e, run="run-b") for e in _sample_events()]
    one = report_from_events(first)
    assert (one.n_runs, one.run_id) == (1, "run-a")
    assert "in this log" not in format_report(one)
    assert_one_fold(first + second)
    both = report_from_events(first + second)
    assert (both.n_runs, both.run_id, both.n_tasks) == (2, "run-b", one.n_tasks)
    assert format_report(both).splitlines()[1] == "run 2 of 2 in this log (run_id run-b)"


# -- bench payloads --------------------------------------------------------------
def test_bench_json_round_trip(tmp_path):
    metrics = metrics_from_events(_sample_events())
    assert set(REQUIRED_BENCH_METRICS) <= set(metrics)
    path = write_bench_json(tmp_path, "smoke", metrics)
    assert path.name == "BENCH_smoke.json"
    payload = json.loads(path.read_text())
    validate_bench(payload)
    assert payload["metrics"]["rays_total"] == 200


def test_validate_bench_rejects_drift():
    metrics = metrics_from_events(_sample_events())
    good = {"bench": "x", "schema_version": SCHEMA_VERSION, "metrics": metrics}
    validate_bench(good)
    with pytest.raises(ValueError, match="missing required keys"):
        validate_bench({**good, "metrics": {"rays_total": 1}})
    # Additive schema: every older version stays valid, a newer one (or
    # anything that is not a version number) does not.
    for older in (1, SCHEMA_VERSION - 1):
        validate_bench({**good, "schema_version": older})
    for bad in (SCHEMA_VERSION + 1, 99, 0, -3, str(SCHEMA_VERSION), float(SCHEMA_VERSION), None, True):
        with pytest.raises(ValueError, match="schema_version"):
            validate_bench({**good, "schema_version": bad})
    with pytest.raises(ValueError, match="numeric"):
        validate_bench({**good, "metrics": {**metrics, "rays_total": "many"}})


_RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


@pytest.mark.parametrize("path", sorted(_RESULTS.glob("BENCH_*.json")), ids=lambda p: p.stem)
def test_committed_bench_files_validate(path):
    validate_bench(json.loads(path.read_text()))


# -- the farm's run-end accounting -------------------------------------------------
class _ProbeSink:
    """Folds the live stream and keeps the /status body seen at chosen records."""

    def __init__(self):
        self.fold = RunFold(clock=iter(range(10**6)).__next__)
        self.at_flight: list[dict] = []
        self.before_summary: dict | None = None

    def emit(self, record):
        if record["name"] == "task.attempt" and self.before_summary is None:
            self.before_summary = self.fold.snapshot()
        self.fold.emit(record)
        if record["name"] == "obs.flight":
            self.at_flight.append(self.fold.snapshot())


def test_pool_absorbs_worker_events_at_accept_time():
    """Frame division on the process pool: worker buffers join the stream
    as each unit is accepted (as over tcp), not in one lump at run end."""
    from repro.api import RenderRequest, render

    probe = _ProbeSink()
    tel = Telemetry(sinks=[mem := InMemorySink(), probe])
    render(RenderRequest(workload="newton", engine="farm", n_frames=3, width=48, height=36,
                         n_workers=2, transport="process", mode="frame", telemetry=tel))
    tel.close()
    validate_events(mem.events)
    # Mid-run: by the second accept the first unit's task span has landed.
    assert len(probe.at_flight) == 12
    for snap in probe.at_flight[1:]:
        assert sum(w["busy"] for w in snap["workers"]) > 0
    assert probe.at_flight[-1]["frames_done"] == 0  # 11 of 12 blocks: no frame whole yet
    assert probe.before_summary["frames_done"] == 3 and not probe.before_summary["done"]
    # Same records as the run-end absorb produced, batch by batch: each
    # unit's frame events, then the task span that closed over them.
    assert Counter((r["type"], r["name"]) for r in mem.events) == {
        ("event", "run.start"): 1, ("span", "obs.flight"): 12, ("span", "task"): 12,
        ("event", "frame"): 36, ("event", "coherence.frame"): 36,
        ("counter", "intersect.tests"): 12, ("event", "task.attempt"): 12,
        ("histogram", "task.duration"): 1, ("event", "worker"): 2,
        ("event", "run.end"): 1, ("span", "run"): 1,
    }
    names = [r["name"] for r in mem.events]
    first_task = names.index("task")
    assert names[first_task - 6:first_task:2] == ["frame"] * 3
    assert first_task < len(names) - 1 - names[::-1].index("obs.flight")


# -- profiling -------------------------------------------------------------------
def test_profile_into_and_merge(tmp_path):
    def work():
        return sum(i * i for i in range(200))

    with profile_into(tmp_path / "a.prof"):
        work()
    with profile_into(tmp_path / "b.prof"):
        work()
    with profile_into(None):  # no-op path
        work()
    stats = merge_profiles(tmp_path)
    assert stats is not None
    summary = profile_summary(tmp_path, top=5)
    assert "2 task(s)" in summary
    assert merge_profiles(tmp_path / "empty") is None
