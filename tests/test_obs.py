"""repro.obs: trace propagation, the run ledger, and utilization analysis.

Three layers, cheapest first: unit tests of the trace/ledger/analysis
primitives on synthetic event streams with exactly known answers; the
virtual-clock simulator producing deterministic utilization reports that
reproduce the paper's sequence-vs-frame-division idle contrast; and the
real TCP loopback farm, whose merged master+worker stream must validate
against the pinned v4 schema with zero orphan spans — including when a
worker daemon is killed mid-run.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ncsu_testbed
from repro.obs import (
    StatusServer,
    TraceContext,
    chrome_trace,
    compare_division,
    fetch_status,
    find_orphan_spans,
    flight_span_id,
    format_utilization,
    new_run_id,
    render_status,
    utilization_report,
    worker_session,
    worker_timelines,
    write_chrome_trace,
)
from repro.sched import simulate
from repro.telemetry import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    InMemorySink,
    RunFold,
    Telemetry,
    VirtualClock,
    validate_events,
)


# -- trace identity ---------------------------------------------------------------
def test_trace_context_round_trip():
    ctx = TraceContext(run="abc", parent="A7", seed="s7", worker="w1")
    assert TraceContext.from_arg(ctx.to_arg()) == ctx
    # Anything but a context dict means telemetry is off.
    assert TraceContext.from_arg(False) is None
    assert TraceContext.from_arg(None) is None
    assert TraceContext.from_arg(True) is None


def test_run_ids_and_flight_ids():
    assert new_run_id() != new_run_id()
    assert flight_span_id(12) == "A12"


def test_worker_session_namespaces_span_ids():
    ctx = TraceContext(run="r1", parent=flight_span_id(3), seed="s3").to_arg()
    tel_a, sink_a = worker_session(ctx, attempt=0)
    tel_b, sink_b = worker_session(ctx, attempt=1)  # retry of the same args
    with tel_a.span("task", worker="w", mode="m", frame0=0, frame1=1,
                    region=1, rays=0, n_computed=0, attempt=0):
        pass
    with tel_b.span("task", worker="w", mode="m", frame0=0, frame1=1,
                    region=1, rays=0, n_computed=0, attempt=1):
        pass
    (rec_a,), (rec_b,) = sink_a.events, sink_b.events
    assert rec_a["span"] != rec_b["span"]  # distinct namespaces per attempt
    assert rec_a["parent"] == rec_b["parent"] == "A3"
    assert rec_a["run"] == "r1"


def test_worker_session_disabled():
    tel, sink = worker_session(False)
    assert not tel.enabled and sink is None


def test_find_orphan_spans():
    run = {"v": SCHEMA_VERSION, "type": "span", "name": "run", "t": 0.0,
           "dur": 1.0, "span": 1, "parent": None, "attrs": {}}
    child = dict(run, name="obs.flight", span="A0", parent=1)
    orphan = dict(run, name="task", span="x:1", parent="A9")
    assert find_orphan_spans([run, child]) == []
    assert find_orphan_spans([run, child, orphan]) == [orphan]


# -- synthetic golden stream ------------------------------------------------------
def _golden_events():
    """Two lanes on a virtual clock: A busy [0,8], B busy [0,4], wall 8s.

    Aggregate idle is exactly 1 - (8+4)/(2*8) = 0.25.
    """
    now = {"t": 0.0}
    tel = Telemetry(sinks=[mem := InMemorySink()], clock=VirtualClock(lambda: now["t"]))
    tel.event("run.start", engine="sim", workload="golden", n_frames=2,
              width=8, height=6, n_workers=2, mode="sequence")
    for worker, t0 in (("A", 0.0), ("A", 4.0), ("B", 0.0)):
        tel.emit_span("task", t0, 4.0, worker=worker, mode="sequence", frame0=0,
                      frame1=1, region=48, rays=100, n_computed=48, attempt=0)
    tel.event("frame", frame=0, n_computed=48, n_copied=48, rays_camera=60,
              rays_reflected=20, rays_refracted=10, rays_shadow=10, rays_total=100)
    now["t"] = 8.0
    tel.event("run.end", wall_time=8.0, computed_pixels=48, copied_pixels=48,
              n_tasks=3, n_workers=2, rays_camera=60, rays_reflected=20,
              rays_refracted=10, rays_shadow=10, rays_total=100)
    validate_events(mem.events)
    return mem.events


def test_utilization_report_golden(assert_one_fold):
    assert_one_fold(_golden_events())
    assert_one_fold(_balanced_events())
    rep = utilization_report(_golden_events())
    assert rep.wall == pytest.approx(8.0)
    assert rep.idle_frac == pytest.approx(0.25)
    assert rep.balance == pytest.approx(0.5)
    rows = {w["worker"]: w for w in rep.workers}
    assert rows["A"]["util"] == pytest.approx(1.0)
    assert rows["B"]["util"] == pytest.approx(0.5)
    assert rows["B"]["idle"] == pytest.approx(4.0)
    assert rep.recompute_frac == pytest.approx(0.5)
    text = format_utilization(rep, gantt_width=8)
    assert "aggregate idle 25.0%" in text
    assert "|########|" in text  # lane A solid
    assert "|####....|" in text  # lane B half idle


def test_straggler_flagging():
    now = {"t": 0.0}
    tel = Telemetry(sinks=[mem := InMemorySink()], clock=VirtualClock(lambda: now["t"]))
    for i, dur in enumerate((1.0, 1.0, 1.0, 9.0)):
        tel.emit_span("task", 0.0, dur, worker=f"w{i}", mode="m", frame0=0,
                      frame1=1, region=1, rays=0, n_computed=0, attempt=0)
    rep = utilization_report(mem.events, straggler_z=1.5)
    assert rep.stragglers == ["w3"]


def test_worker_timelines_fold_flights_into_comms():
    events = _golden_events()
    tel = Telemetry(sinks=[mem := InMemorySink()])
    tel.emit_span("obs.flight", 0.0, 4.5, span="A0", parent=None,
                  worker="A", seq=0, attempt=0, outcome="ok")
    lanes = worker_timelines(events + mem.events)
    assert lanes["A"].busy == pytest.approx(8.0)
    # flight_time (4.5) < busy: comms clamps at zero, never negative
    assert lanes["A"].comms == pytest.approx(0.0)


def _balanced_events():
    """The same 12 busy-seconds as :func:`_golden_events`, but split
    evenly across both lanes — the run finishes at 6s with zero idle."""
    now = {"t": 0.0}
    tel = Telemetry(sinks=[mem := InMemorySink()], clock=VirtualClock(lambda: now["t"]))
    tel.event("run.start", engine="sim", workload="golden", n_frames=2,
              width=8, height=6, n_workers=2, mode="frame")
    for worker in ("A", "B"):
        tel.emit_span("task", 0.0, 6.0, worker=worker, mode="frame", frame0=0,
                      frame1=1, region=48, rays=100, n_computed=48, attempt=0)
    now["t"] = 6.0
    tel.event("run.end", wall_time=6.0, computed_pixels=48, copied_pixels=48,
              n_tasks=2, n_workers=2, rays_camera=60, rays_reflected=20,
              rays_refracted=10, rays_shadow=10, rays_total=100)
    return mem.events


def test_compare_division_contrast():
    seq = utilization_report(_golden_events())
    frame = utilization_report(_balanced_events())
    text = compare_division({"sequence": seq, "frame": frame})
    assert "'frame' keeps lanes busiest" in text
    assert "25.0 pp less idle than 'sequence'" in text
    with pytest.raises(ValueError):
        compare_division({"only": seq})


# -- simulator: deterministic reports, the paper's division contrast ---------------
def _sim_report(strategy, oracle):
    tel = Telemetry(sinks=[mem := InMemorySink()])
    simulate(strategy, oracle, ncsu_testbed(), sec_per_work_unit=1e-4, telemetry=tel)
    tel.close()
    validate_events(mem.events)
    return mem.events


def test_sim_utilization_is_deterministic(tiny_oracle, assert_one_fold):
    a = _sim_report("sequence-division-fc", tiny_oracle)
    b = _sim_report("sequence-division-fc", tiny_oracle)
    assert a == b  # virtual clock: bit-identical streams run-to-run
    assert_one_fold(a)
    rep = utilization_report(a)
    assert rep.engine == "sim" and rep.n_workers > 1
    assert 0.0 <= rep.idle_frac < 1.0


def test_sim_division_contrast_from_events_alone(tiny_oracle):
    seq = utilization_report(_sim_report("sequence-division-fc", tiny_oracle))
    frame = utilization_report(_sim_report("frame-division-fc", tiny_oracle))
    # The paper's load-balance claim: static sequence division strands
    # lanes; frame division keeps them busy.
    assert frame.idle_frac < seq.idle_frac
    assert "keeps lanes busiest" in compare_division({"sequence": seq, "frame": frame})


# -- ledger + live surface --------------------------------------------------------
def _event(name, **attrs):
    return {"v": SCHEMA_VERSION, "type": "event", "name": name, "t": 0.0, "attrs": attrs}


#: The /status body's key sets as the pre-fold RunLedger served them.
_STATUS_KEYS = {
    "attempts", "done", "elapsed", "eta_seconds", "frames_done", "frames_salvaged",
    "in_flight", "losses", "n_events", "n_shards", "shard_bytes", "tasks_done",
    "tasks_failed", "tasks_per_sec", "tile_bytes", "tiles_done", "workers",
}
_RUN_KEYS = {"run", "engine", "workload", "mode", "n_frames", "n_workers"}  # after run.start
_WORKER_KEYS = {
    "busy", "cores", "health", "heartbeat_age", "host", "n_done", "offset",
    "rays_forwarded", "rays_local", "rays_received", "rtt", "score", "shards", "worker",
}


def test_ledger_folds_stream():
    now = {"t": 100.0}
    led = RunFold(clock=lambda: now["t"])
    led.emit(_event("run.start", engine="farm", workload="newton", n_frames=4,
                    width=8, height=6, n_workers=2, mode="adaptive"))
    led.emit(_event("net.worker.join", worker="w0", host="h", pid=1, cores=2, score=1.0))
    led.emit(_event("net.assign", worker="w0", seq=0, frame0=0, frame1=2, bytes=10))
    snap = led.snapshot()
    assert snap["run"] == "" and snap["engine"] == "farm" and not snap["done"]
    assert [w["worker"] for w in snap["workers"]] == ["w0"]
    assert [a["seq"] for a in snap["in_flight"]] == [0]
    assert set(snap) == _STATUS_KEYS | _RUN_KEYS
    assert set(snap["workers"][0]) == _WORKER_KEYS
    assert set(snap["in_flight"][0]) == {"age", "frame0", "frame1", "seq", "since", "worker"}

    now["t"] = 101.0
    led.emit({"v": SCHEMA_VERSION, "type": "span", "name": "obs.flight", "t": 0.0,
              "dur": 0.5, "span": "A0", "parent": 1,
              "attrs": {"worker": "w0", "seq": 0, "attempt": 1, "outcome": "ok"}})
    led.emit(_event("frame", frame=0, n_computed=40, n_copied=8, rays_camera=0,
                    rays_reflected=0, rays_refracted=0, rays_shadow=0, rays_total=1))
    snap = led.snapshot()  # 40 + 8 pixels cover the 8x6 image: frame 0 is done
    assert snap["in_flight"] == [] and snap["tasks_done"] == 1
    assert snap["frames_done"] == 1 and snap["attempts"] == {"ok": 1}
    assert snap["workers"][0]["n_done"] == 1


def test_ledger_prefers_flight_attempts_over_summary():
    led = RunFold(clock=lambda: 0.0)
    led.emit({"v": SCHEMA_VERSION, "type": "span", "name": "obs.flight", "t": 0.0,
              "dur": 0.5, "span": "A0", "parent": None,
              "attrs": {"worker": "w0", "seq": 0, "attempt": 1, "outcome": "ok"}})
    # The run-end summary re-describes the same dispatch; it must not
    # double the count.
    led.emit(_event("task.attempt", task=0, attempt=1, outcome="ok",
                    duration=0.5, worker="w0"))
    assert led.snapshot()["attempts"] == {"ok": 1}


def test_ledger_records_losses():
    led = RunFold(clock=lambda: 0.0)
    led.emit(_event("net.assign", worker="w0", seq=3, frame0=0, frame1=1, bytes=1))
    led.emit(_event("net.worker.lost", worker="w0", reason="eof", seq=3))
    snap = led.snapshot()
    assert snap["losses"] == [{"worker": "w0", "reason": "eof", "blackbox": ""}]
    assert snap["in_flight"] == []
    assert set(snap) == _STATUS_KEYS  # no run.start seen: no run identity keys
    assert snap["workers"][0]["health"] == "lost"


def test_fold_frame_is_done_when_its_blocks_cover_the_image():
    """Frame division: one finished block unit is not a finished frame."""
    fold = RunFold(clock=iter(range(10**6)).__next__)
    fold.emit(_event("run.start", engine="farm", workload="w", n_frames=3,
                     width=8, height=6, n_workers=2, mode="frame"))
    for block in range(2):
        for frame in range(3):
            fold.emit(_event("frame", frame=frame, n_computed=20, n_copied=4, rays_camera=20,
                             rays_reflected=0, rays_refracted=0, rays_shadow=0, rays_total=20))
        snap = fold.snapshot()
        assert snap["frames_done"] == (0, 3)[block]
    assert snap["eta_seconds"] is None  # nothing left to wait for


def test_fold_handlers_are_schema_names():
    """A renamed event cannot silently fall out of the fold."""
    assert set(RunFold._HANDLERS) | set(RunFold._LATENCY_ROUTES) <= set(EVENT_SCHEMA)


def test_fold_is_bounded_across_runs():
    """Attached for a service's lifetime: run.start clears the per-run
    containers, so three jobs leave what one does."""
    fold = RunFold()
    sizes = []
    for job in range(3):
        for rec in _golden_events():
            fold.emit(rec)
        sizes.append({k: len(v) for k, v in vars(fold).items()
                      if isinstance(v, (dict, list, set))})
        assert fold.report().n_tasks == 3 and fold.snapshot()["n_events"] == 6 * (job + 1)
        assert sum(len(tl.segments) for tl in fold.timelines().values()) == 3
    assert sizes[0] == sizes[1] == sizes[2]


def test_status_server_round_trip():
    led = RunFold()
    led.emit(_event("run.start", engine="farm", workload="newton", n_frames=2,
                    width=8, height=6, n_workers=1, mode="frame"))
    with StatusServer(led, port=0) as srv:
        snap = fetch_status(f"127.0.0.1:{srv.port}")
    assert snap["engine"] == "farm" and snap["n_frames"] == 2
    text = render_status(snap)
    assert "repro farm" in text and "newton" in text


# -- chrome trace export ----------------------------------------------------------
def test_chrome_trace_shapes():
    events = _golden_events()
    doc = chrome_trace(events, run_id="r123")
    assert doc["otherData"]["run_id"] == "r123"
    lane_names = {e["tid"]: e["args"]["name"]
                  for e in doc["traceEvents"] if e["ph"] == "M"}
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 3  # the three task spans
    assert {lane_names[e["tid"]] for e in xs} == {"A", "B"}  # one track per lane
    assert all(e["pid"] == 1 and e["dur"] == pytest.approx(4e6) for e in xs)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert {e["name"] for e in instants} >= {"run.start", "frame", "run.end"}


def test_write_chrome_trace(tmp_path):
    import json

    path = tmp_path / "sub" / "run.trace.json"
    n = write_chrome_trace(_golden_events(), path, run_id="r1")
    doc = json.loads(path.read_text())
    assert n == len(doc["traceEvents"]) >= len(_golden_events())
    assert doc["displayTimeUnit"] == "ms"


# -- the real TCP farm ------------------------------------------------------------
def _tcp_render(n_workers, n_frames, fault_plan=None):
    from repro.api import RenderRequest, render

    return render(RenderRequest(
        workload="newton", engine="farm", n_frames=n_frames, width=48, height=36,
        n_workers=n_workers, transport="tcp", schedule="adaptive",
        fault_plan=fault_plan, telemetry=True,
    ))


def test_tcp_merged_stream_validates_v4_no_orphans():
    res = _tcp_render(n_workers=2, n_frames=4)
    events = res.events
    validate_events(events)  # pinned v4 schema, master + worker merged
    assert all(e["v"] == SCHEMA_VERSION for e in events)
    assert find_orphan_spans(events) == []
    runs = {e.get("run") for e in events if e.get("run")}
    assert len(runs) == 1  # one trace id across both sides of the wire
    task_lanes = {e["attrs"]["worker"] for e in events
                  if e.get("type") == "span" and e.get("name") == "task"}
    assert task_lanes == {"w0", "w1"}  # worker-side spans landed, lane-labeled
    assert any(e.get("name") == "obs.clock" for e in events)


def test_tcp_killed_worker_single_trace(assert_one_fold):
    from repro.runtime import FaultPlan

    res = _tcp_render(
        n_workers=3, n_frames=6, fault_plan=FaultPlan([FaultPlan.kill_worker(0, 1)])
    )
    events = res.events
    validate_events(events)
    fold = assert_one_fold(events)  # a live run and its replay are one code path
    assert fold.snapshot()["frames_done"] == 6 and len(fold.report().losses) == 1
    assert find_orphan_spans(events) == []
    assert len({e.get("run") for e in events if e.get("run")}) == 1
    flights = [e for e in events if e.get("name") == "obs.flight"]
    outcomes = {e["attrs"]["outcome"] for e in flights}
    assert "ok" in outcomes and outcomes - {"ok"}  # the killed attempt is visible
    lost = [e for e in events if e.get("name") == "net.worker.lost"]
    assert len(lost) == 1 and lost[0]["attrs"]["worker"] in {"w0", "w1", "w2"}
    # The reassigned work completed: every frame has a frame event.
    frames = {e["attrs"]["frame"] for e in events if e.get("name") == "frame"}
    assert frames == set(range(6))
    rep = utilization_report(events)
    assert rep.n_lost == 1 and len(rep.workers) == 3
