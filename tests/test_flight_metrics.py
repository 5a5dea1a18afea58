"""repro.obs flight recorder + metrics plane: black boxes and percentiles.

Three layers, cheapest first: seeded-random property tests pin the
mergeable histogram's two contracts (``merge(a, b)`` is indistinguishable
from ingesting the concatenation, and every quantile stays within the
advertised relative error across ~1k random distributions); unit tests
cover the EWMA straggler detector, the metrics plane's record routing and
Prometheus exposition, the flight-recorder ring/dump/stitch cycle, and
the connection-refused retry in ``fetch_status``; and one real TCP
loopback farm run kills a worker daemon mid-frame and requires the black
box it leaves behind to land, parse, and stitch into the master's trace
with the victim's final in-flight task recovered and zero orphan spans.

No hypothesis dependency: the property tests drive ``random.Random``
with fixed seeds, so every trial is reproducible from the failure
message alone.
"""

from __future__ import annotations

import json
import random
import socket
import sys
import threading
import time
import urllib.error
from pathlib import Path

import pytest

from repro.net.master import TcpTransport
from repro.obs import (
    EXPOSITION_CONTENT_TYPE,
    FlightRecorder,
    StatusServer,
    StragglerDetector,
    blackbox_filename,
    chrome_trace,
    fetch_status,
    find_orphan_spans,
    open_span_records,
    prometheus_name,
    read_blackbox,
    stitch_blackbox,
)
from repro.runtime import (
    AnimationSpec,
    FarmOptions,
    FaultPlan,
    LocalRenderFarm,
    RecoveryOptions,
)
from repro.sched import make_policy
from repro.telemetry import (
    SCHEMA_VERSION,
    InMemorySink,
    LogHistogram,
    RunFold,
    Telemetry,
    validate_events,
)
from repro.telemetry.hist import _EXACT_CAP


# -- histogram property tests ------------------------------------------------------
def _draw(rng: random.Random, kind: str, n: int) -> list[float]:
    if kind == "uniform":
        return [rng.uniform(1e-4, 100.0) for _ in range(n)]
    if kind == "exponential":
        return [rng.expovariate(1.0 / 5.0) + 1e-9 for _ in range(n)]
    if kind == "lognormal":
        return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
    if kind == "tiny":  # sub-second latencies, the common real workload
        return [rng.uniform(1e-6, 0.25) for _ in range(n)]
    raise AssertionError(kind)


_KINDS = ("uniform", "exponential", "lognormal", "tiny")


def _ingest(values, rel_err=None) -> LogHistogram:
    h = LogHistogram() if rel_err is None else LogHistogram(rel_err=rel_err)
    for v in values:
        h.add(v)
    return h


def test_histogram_merge_equals_ingest_concatenation():
    """merge(a, b) must be indistinguishable from ingesting a ++ b.

    Sizes straddle the exact-sample cap on purpose, so the property holds
    through the exact -> bucketed degradation, not just on one side.
    """
    rng = random.Random(0xF11)
    sizes = (0, 1, 3, 40, _EXACT_CAP // 2, _EXACT_CAP, _EXACT_CAP + 1, 700)
    for trial in range(200):
        kind = _KINDS[trial % len(_KINDS)]
        na, nb = rng.choice(sizes), rng.choice(sizes)
        vals_a = _draw(rng, kind, na)
        vals_b = _draw(rng, kind, nb)
        merged = _ingest(vals_a).merge(_ingest(vals_b))
        concat = _ingest(vals_a + vals_b)
        ctx = f"trial={trial} kind={kind} na={na} nb={nb}"
        assert merged.count == concat.count, ctx
        assert merged.zeros == concat.zeros, ctx
        assert merged.vmin == concat.vmin and merged.vmax == concat.vmax, ctx
        assert merged.buckets == concat.buckets, ctx
        # float addition order differs between the two folds
        assert merged.total == pytest.approx(concat.total, rel=1e-9), ctx
        # exactness must degrade identically (samples live or die together)
        assert (merged._samples is None) == (concat._samples is None), ctx
        if merged._samples is not None:
            assert sorted(merged._samples) == sorted(concat._samples), ctx
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert merged.quantile(q) == pytest.approx(
                concat.quantile(q), rel=1e-12, abs=1e-15
            ), f"{ctx} q={q}"


def test_histogram_quantile_relative_error_bound():
    """Every quantile within rel_err of the true order statistic, ~1k
    random distributions (positive values; zeros get their own test)."""
    rng = random.Random(0xB0B)
    n_trials = 1000
    for trial in range(n_trials):
        kind = _KINDS[trial % len(_KINDS)]
        rel_err = 0.05 if trial % 3 == 0 else 0.01
        n = rng.randint(1, 600) if trial % 2 else rng.randint(_EXACT_CAP + 1, 2000)
        vals = _draw(rng, kind, n)
        h = _ingest(vals, rel_err=rel_err)
        ordered = sorted(vals)
        for q in (0.5, 0.95, 0.99):
            true = ordered[min(n - 1, int(q * n))]
            est = h.quantile(q)
            tol = rel_err * true * (1.0 + 1e-9) + 1e-12
            assert abs(est - true) <= tol, (
                f"trial={trial} kind={kind} n={n} rel_err={rel_err} q={q}: "
                f"est={est!r} true={true!r}"
            )


def test_histogram_zeros_empty_and_merge_errors():
    empty = LogHistogram()
    assert empty.count == 0 and empty.quantile(0.5) == 0.0 and empty.mean == 0.0
    h = _ingest([0.0, 0.0, -1.5, 2.0, 4.0])
    assert h.zeros == 3 and h.count == 5
    assert h.quantile(0.0) == -1.5  # exact while the sample buffer lives
    assert h.quantile(1.0) == 4.0
    with pytest.raises(TypeError):
        h.merge({"count": 1})
    with pytest.raises(ValueError):
        h.merge(LogHistogram(rel_err=0.05))
    with pytest.raises(ValueError):
        LogHistogram(rel_err=1.5)


def test_histogram_digest_round_trips_through_json():
    rng = random.Random(7)
    for n in (5, _EXACT_CAP + 10):  # exact and degraded forms
        h = _ingest(_draw(rng, "lognormal", n) + [0.0])
        wire = json.loads(json.dumps(h.to_dict()))  # the RESULT-frame path
        back = LogHistogram.from_dict(wire)
        assert back.count == h.count and back.zeros == h.zeros
        assert back.buckets == h.buckets
        assert ("samples" in wire) == (h._samples is not None)
        for q in (0.5, 0.95, 0.99):
            assert back.quantile(q) == pytest.approx(h.quantile(q), rel=1e-12)
        # a digest is still mergeable after the round trip
        assert LogHistogram.from_dict(wire).merge(back).count == 2 * h.count
    summary = h.summary()
    assert set(summary) == {"min", "max", "mean", "p50", "p95", "p99", "rel_err", "digest"}


def test_prometheus_name_sanitization():
    assert prometheus_name("task.duration") == "repro_task_duration"
    assert prometheus_name("dfb.tile.nbytes") == "repro_dfb_tile_nbytes"
    assert prometheus_name("9weird") == "repro_m_9weird"


# -- straggler detector ------------------------------------------------------------
def test_straggler_detector_flags_and_recovers_with_valid_events():
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    det = StragglerDetector(alpha=0.3, ratio=2.0, recover_ratio=1.5, min_samples=4)
    flips: list[str] = []

    def cycle(slow: float, rounds: int) -> None:
        for _ in range(rounds):
            for worker, dur in (("w0", slow), ("w1", 1.0), ("w2", 1.0), ("w3", 1.0)):
                flip = det.observe(worker, dur, telemetry=tel)
                if flip:
                    flips.append(flip)

    cycle(1.0, 2)  # warm-up: everyone equal, nothing may fire
    assert flips == [] and det.stragglers == set()
    cycle(20.0, 30)  # w0 turns 20x slower than the farm
    assert flips == ["straggler"] and det.state("w0") == "straggler"
    cycle(1.0, 30)  # and comes back under the hysteresis ratio
    assert flips == ["straggler", "recovered"] and det.state("w0") == "ok"
    assert det.stragglers == set()
    tel.close()
    validate_events(sink.events)
    names = [r["name"] for r in sink.events]
    assert names == ["health.straggler", "health.recovered"]
    for rec in sink.events:
        assert rec["attrs"]["worker"] == "w0"
        assert rec["attrs"]["ewma"] > 0 and rec["attrs"]["farm"] > 0


def test_straggler_detector_min_samples_and_constructor_guards():
    det = StragglerDetector(min_samples=5, ratio=1.2, recover_ratio=1.1)
    # far beyond the ratio, but under min_samples: must stay silent
    for _ in range(2):
        assert det.observe("fast", 1.0) is None
        assert det.observe("slow", 50.0) is None
    assert det.stragglers == set()
    with pytest.raises(ValueError):
        StragglerDetector(alpha=0.0)
    with pytest.raises(ValueError):
        StragglerDetector(ratio=2.0, recover_ratio=3.0)  # no hysteresis


# -- metrics plane -----------------------------------------------------------------
def _task_span(worker: str, dur: float, t: float = 0.0) -> dict:
    return {
        "type": "span", "name": "task", "t": t, "dur": dur, "span": f"{worker}:{t}",
        "parent": None,
        "attrs": {"worker": worker, "mode": "frame", "frame0": 0, "frame1": 1,
                  "region": 0, "rays": 0, "n_computed": 0, "attempt": 1},
    }


#: /metrics for the routing stream below, byte for byte what the pre-fold
#: MetricsPlane served.
_EXPOSITION = """\
# HELP repro_dfb_tile_nbytes Streaming quantiles of dfb.tile.nbytes (log-bucketed).
# TYPE repro_dfb_tile_nbytes summary
repro_dfb_tile_nbytes{quantile="0.5"} 192
repro_dfb_tile_nbytes{quantile="0.95"} 192
repro_dfb_tile_nbytes{quantile="0.99"} 192
repro_dfb_tile_nbytes_sum 192
repro_dfb_tile_nbytes_count 1
# HELP repro_net_result_duration Streaming quantiles of net.result.duration (log-bucketed).
# TYPE repro_net_result_duration summary
repro_net_result_duration{quantile="0.5"} 0.5
repro_net_result_duration{quantile="0.95"} 0.5
repro_net_result_duration{quantile="0.99"} 0.5
repro_net_result_duration_sum 0.5
repro_net_result_duration_count 1
# HELP repro_net_rtt Streaming quantiles of net.rtt (log-bucketed).
# TYPE repro_net_rtt summary
repro_net_rtt{quantile="0.5"} 0.003
repro_net_rtt{quantile="0.95"} 0.003
repro_net_rtt{quantile="0.99"} 0.003
repro_net_rtt_sum 0.003
repro_net_rtt_count 1
# HELP repro_task_attempt_duration Streaming quantiles of task.attempt.duration (log-bucketed).
# TYPE repro_task_attempt_duration summary
repro_task_attempt_duration{quantile="0.5"} 0.4
repro_task_attempt_duration{quantile="0.95"} 0.4
repro_task_attempt_duration{quantile="0.99"} 0.4
repro_task_attempt_duration_sum 0.4
repro_task_attempt_duration_count 1
# HELP repro_task_duration Streaming quantiles of task.duration (log-bucketed).
# TYPE repro_task_duration summary
repro_task_duration{quantile="0.5"} 0.5
repro_task_duration{quantile="0.95"} 0.5
repro_task_duration{quantile="0.99"} 0.5
repro_task_duration_sum 0.75
repro_task_duration_count 2
# HELP repro_worker_health Worker health state (0=ok, 1=straggler, 2=lost).
# TYPE repro_worker_health gauge
repro_worker_health{worker="w0"} 0
repro_worker_health{worker="w1"} 2
# HELP repro_rays_total_total Accumulated counter rays.total.
# TYPE repro_rays_total_total counter
repro_rays_total_total 20
# HELP repro_telemetry_records_total Records folded into the plane.
# TYPE repro_telemetry_records_total counter
repro_telemetry_records_total 9
"""


def test_metrics_plane_routes_records_into_exposition():
    plane = RunFold()
    plane.emit(_task_span("w0", 0.5))
    plane.emit(_task_span("w1", 0.25, t=1.0))
    plane.emit({"type": "event", "name": "net.pong", "t": 2.0,
                "attrs": {"worker": "w0", "rtt": 0.003}})
    plane.emit({"type": "event", "name": "net.result", "t": 2.5,
                "attrs": {"worker": "w0", "seq": 0, "nbytes": 100,
                          "compressed": True, "duration": 0.5}})
    plane.emit({"type": "event", "name": "task.attempt", "t": 3.0,
                "attrs": {"task": "t0", "attempt": 1, "outcome": "ok",
                          "duration": 0.4, "started": 2.6}})
    plane.emit({"type": "event", "name": "dfb.tile", "t": 3.5,
                "attrs": {"worker": "w1", "seq": 1, "frame": 0, "x0": 0, "y0": 0,
                          "x1": 8, "y1": 8, "nbytes": 192}})
    plane.emit({"type": "event", "name": "net.worker.lost", "t": 4.0,
                "attrs": {"worker": "w1", "reason": "died", "seq": 1, "blackbox": ""}})
    for _ in range(2):
        plane.emit({"type": "counter", "name": "rays.total", "t": 5.0, "value": 10})

    hists = plane.histograms()
    assert hists["task.duration"].count == 2
    assert hists["net.rtt"].count == 1
    assert hists["net.result.duration"].count == 1
    assert hists["task.attempt.duration"].count == 1
    assert hists["dfb.tile.nbytes"].count == 1
    assert plane.health() == {"w0": "ok", "w1": "lost"}

    body, ctype = plane.exposition()
    assert ctype == EXPOSITION_CONTENT_TYPE
    text = body.decode("utf-8")
    assert '# TYPE repro_task_duration summary' in text
    assert 'repro_task_duration{quantile="0.5"}' in text
    assert 'repro_task_duration{quantile="0.95"}' in text
    assert 'repro_task_duration{quantile="0.99"}' in text
    assert "repro_task_duration_count 2" in text
    assert 'repro_worker_health{worker="w0"} 0' in text
    assert 'repro_worker_health{worker="w1"} 2' in text
    assert "repro_rays_total_total 20" in text
    assert "repro_telemetry_records_total 9" in text
    assert text == _EXPOSITION
    assert plane.route() == (body, ctype)


def test_metrics_plane_folds_foreign_digest_but_skips_owned():
    plane = RunFold()
    plane.emit(_task_span("w0", 0.5))
    digest = _ingest([1.0] * 100).to_dict()
    flush = {"type": "histogram", "name": "task.duration", "t": 9.0, "value": 100,
             "attrs": {"digest": digest}}
    plane.emit(flush)  # owned series: the plane already folded those spans
    assert plane.histograms()["task.duration"].count == 1
    foreign = dict(flush, name="worker.render.duration")
    plane.emit(foreign)
    assert plane.histograms()["worker.render.duration"].count == 100
    plane.emit(dict(foreign))  # second digest merges associatively
    assert plane.histograms()["worker.render.duration"].count == 200
    # incompatible rel_err and malformed digests are dropped, not fatal
    bad = dict(foreign, attrs={"digest": _ingest([1.0], rel_err=0.05).to_dict()})
    plane.emit(bad)
    plane.emit(dict(foreign, attrs={"digest": "not-a-dict"}))
    plane.emit(dict(foreign, attrs={}))
    assert plane.histograms()["worker.render.duration"].count == 200


def test_metrics_plane_detector_emits_into_bound_session():
    """The usual arrangement: the fold is a sink of the session it binds,
    so health.* events re-enter the stream (and the fold) it came from."""
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    fold = RunFold(
        detector=StragglerDetector(alpha=0.3, ratio=2.0, recover_ratio=1.5,
                                   min_samples=4)
    ).bind(tel)
    tel.sinks.append(fold)
    tel.emit({"type": "event", "name": "net.worker.join", "t": 0.0,
              "attrs": {"worker": "w0", "host": "localhost", "cores": 1, "score": 1.0}})
    t = 0.0
    for round_i in range(40):
        slow = 20.0 if round_i >= 2 else 1.0
        for worker, dur in (("w0", slow), ("w1", 1.0), ("w2", 1.0), ("w3", 1.0)):
            tel.emit(_task_span(worker, dur, t=t))
            t += 1.0
        if any(r["name"] == "health.straggler" for r in sink.events):
            break
    tel.close()
    validate_events(sink.events)
    straggles = [r for r in sink.events if r["name"] == "health.straggler"]
    assert straggles and straggles[0]["attrs"]["worker"] == "w0"
    assert fold.health()["w0"] == "straggler"
    rows = {w["worker"]: w for w in fold.snapshot()["workers"]}
    assert rows["w0"]["health"] == "straggler"


def test_ledger_folds_health_and_loss_blackbox_pointer():
    ticks = iter(range(10**6))
    ledger = RunFold(clock=lambda: float(next(ticks)))
    for w in ("w0", "w1"):
        ledger.emit({"type": "event", "name": "net.worker.join", "t": 0.0,
                     "attrs": {"worker": w, "host": "h", "cores": 1, "score": 1.0}})
    ledger.emit({"type": "event", "name": "health.straggler", "t": 1.0,
                 "attrs": {"worker": "w0", "ewma": 5.0, "farm": 1.0, "ratio": 5.0}})
    rows = {w["worker"]: w for w in ledger.snapshot()["workers"]}
    assert rows["w0"]["health"] == "straggler" and rows["w1"]["health"] == "ok"
    ledger.emit({"type": "event", "name": "health.recovered", "t": 2.0,
                 "attrs": {"worker": "w0", "ewma": 1.2, "farm": 1.0, "ratio": 1.2}})
    ledger.emit({"type": "event", "name": "net.worker.lost", "t": 3.0,
                 "attrs": {"worker": "w1", "reason": "heartbeat", "seq": 7,
                           "blackbox": "/tmp/blackbox_worker_42.jsonl"}})
    snap = ledger.snapshot()
    rows = {w["worker"]: w for w in snap["workers"]}
    assert rows["w0"]["health"] == "ok" and rows["w1"]["health"] == "lost"
    assert snap["losses"][-1]["blackbox"] == "/tmp/blackbox_worker_42.jsonl"
    # recovery events never resurrect a lost worker
    ledger.emit({"type": "event", "name": "health.recovered", "t": 4.0,
                 "attrs": {"worker": "w1", "ewma": 1.0, "farm": 1.0, "ratio": 1.0}})
    rows = {w["worker"]: w for w in ledger.snapshot()["workers"]}
    assert rows["w1"]["health"] == "lost"


def test_chrome_trace_emits_histogram_counter_tracks():
    summary = _ingest([0.1, 0.2, 0.4, 0.8]).summary()
    events = [{"type": "histogram", "name": "task.duration", "t": 1.0, "value": 4,
               "attrs": summary}]
    counters = [e for e in chrome_trace(events)["traceEvents"] if e.get("ph") == "C"]
    by_name = {e["name"]: e for e in counters}
    assert "task.duration/p50" in by_name and "task.duration/p95" in by_name
    assert by_name["task.duration/p50"]["args"]["value"] == pytest.approx(summary["p50"])
    assert by_name["task.duration/p95"]["cat"] == "histogram"


# -- fetch_status retry ------------------------------------------------------------
class _Snap:
    def snapshot(self):
        return {"alive": True}


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_fetch_status_retries_through_slow_server_start():
    port = _free_port()
    server = StatusServer(_Snap(), port=port)

    def late_start():
        time.sleep(0.4)
        server.start()

    t = threading.Thread(target=late_start, daemon=True)
    t.start()
    try:
        # first attempts hit a refused socket; the doubling retry outlives
        # the 0.4 s startup gap
        snap = fetch_status(f"127.0.0.1:{port}", retries=6, retry_delay=0.05)
        assert snap == {"alive": True}
    finally:
        t.join()
        server.stop()


def test_fetch_status_raises_after_exhausting_retries():
    port = _free_port()
    t0 = time.perf_counter()
    with pytest.raises(urllib.error.URLError):
        fetch_status(f"127.0.0.1:{port}", retries=2, retry_delay=0.01)
    assert time.perf_counter() - t0 < 5.0  # bounded, not an infinite poll


# -- flight recorder ---------------------------------------------------------------
def test_flight_recorder_ring_dump_and_torn_line(tmp_path):
    rec = FlightRecorder("master", tmp_path, capacity=4)
    seen = []
    rec.hook = seen.append
    rec.install(signals=False)
    tel = Telemetry()
    try:
        for i in range(10):
            tel.event("net.pong", worker="w0", rtt=0.001 * i)
        rec.note_frame("send", "ASSIGN", 128)
        path = rec.dump("drill")
    finally:
        rec.uninstall()
        tel.close()
    assert len(seen) == 10  # the hook sees every tapped record, ring or not
    assert path == tmp_path / blackbox_filename("master", rec.pid)
    assert rec.dumped_path == path
    records = read_blackbox(path)
    meta = records[0]
    assert meta["type"] == "blackbox"
    assert meta["attrs"]["role"] == "master" and meta["attrs"]["reason"] == "drill"
    assert meta["attrs"]["n_ring"] == 4  # ring capacity, oldest fell off
    ring = records[1:]
    assert ring[-1]["type"] == "wire" and ring[-1]["attrs"]["nbytes"] == 128
    # a dump torn mid-write keeps the parsed prefix
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"type":"event","name"')
    assert read_blackbox(path) == records
    # no out_dir configured -> records still available, dump is a no-op
    boxless = FlightRecorder("worker")
    assert boxless.dump("x") is None
    assert boxless.records("x")[0]["attrs"]["reason"] == "x"


def test_open_spans_synthesized_at_dump_time():
    rec = FlightRecorder("worker")
    rec.install(signals=False)
    tel = Telemetry(run_id="r1")
    try:
        with tel.span("task", worker="w0", mode="frame", frame0=0, frame1=1,
                      region=0, rays=0, n_computed=0, attempt=1) as sp:
            payload = rec.records("mid-task")
            open_recs = [r for r in payload if r.get("open") and r["name"] == "task"
                         and r.get("span") == sp.span_id]
            assert len(open_recs) == 1
            rec_open = open_recs[0]
            assert rec_open["v"] == SCHEMA_VERSION and rec_open["run"] == "r1"
            assert rec_open["dur"] >= 0.0
            assert rec_open["attrs"]["worker"] == "w0"
            assert open_span_records(t_now=tel.now())  # module-level helper agrees
    finally:
        rec.uninstall()
        tel.close()
    # once the span closed, nothing synthesizes for it any more
    assert not [r for r in rec.records() if r.get("open") and r.get("span") == sp.span_id]


def test_multiple_recorders_share_one_tap():
    rec_a = FlightRecorder("service").install(signals=False)
    rec_b = FlightRecorder("master").install(signals=False)
    tel = Telemetry()
    try:
        tel.event("net.pong", worker="w0", rtt=0.001)
        assert len(rec_a.records()) >= 2 and len(rec_b.records()) >= 2
        rec_a.uninstall()
        tel.event("net.pong", worker="w0", rtt=0.002)
        n_after = len(rec_b.records())
        rec_b.uninstall()
        tel.event("net.pong", worker="w0", rtt=0.003)  # tap cleared: not recorded
        assert len(rec_b.records()) == n_after
    finally:
        rec_a.uninstall()
        rec_b.uninstall()
        tel.close()


def test_install_restores_excepthook_on_uninstall():
    prev = sys.excepthook
    rec = FlightRecorder("master").install(signals=True)
    try:
        assert sys.excepthook is not prev
    finally:
        rec.uninstall()
    assert sys.excepthook is prev


def test_stitch_blackbox_dedups_offsets_and_filters():
    events = [
        {"type": "span", "name": "task", "t": 1.0, "dur": 0.5, "span": "w1:1",
         "parent": None, "attrs": {}},
        {"type": "event", "name": "net.pong", "t": 1.0, "attrs": {}},
    ]
    dump = [
        {"type": "blackbox", "name": "meta", "t": 0.0, "attrs": {}},
        {"type": "wire", "name": "wire.send", "t": 0.1, "attrs": {}},
        {"type": "span", "name": "task", "t": 1.0, "dur": 0.5, "span": "w1:1",
         "parent": None, "attrs": {}},  # already shipped: dedup by span id
        {"type": "span", "name": "task", "t": 5.0, "dur": 0.1, "span": "w1:2",
         "parent": None, "attrs": {}, "open": True},
        {"type": "event", "name": "net.pong", "t": 1.0, "attrs": {}},  # dup point
    ]
    merged, n_added = stitch_blackbox(events, dump)
    assert n_added == 1 and len(merged) == 3
    assert len(events) == 2  # input untouched
    assert not [r for r in merged if r["type"] in ("wire", "blackbox")]
    # a clock offset makes the "duplicate" point event land elsewhere
    merged2, n2 = stitch_blackbox(events, dump, t_offset=0.25)
    assert n2 == 2
    assert {r["t"] for r in merged2 if r["name"] == "net.pong"} == {1.0, 1.25}
    assert [r for r in merged2 if r.get("span") == "w1:2"][0]["t"] == 5.25


# -- the wire: MSG_BLACKBOX shipping + the full kill round trip --------------------
def test_worker_ships_predecessor_blackbox_over_wire(tmp_path):
    """A dump left by a dead worker is shipped over MSG_BLACKBOX by the
    next worker to join from the same run directory, and the master
    re-persists it and narrates the arrival as ``obs.blackbox``."""
    box = tmp_path / blackbox_filename("worker", 99999)
    meta = {"type": "blackbox", "name": "meta", "t": 0.0,
            "attrs": {"role": "worker", "pid": 99999, "reason": "sigterm", "n_ring": 1}}
    rec1 = {"type": "event", "name": "net.pong", "t": 0.25,
            "attrs": {"worker": "w0.99999", "rtt": 0.001}}
    box.write_text(json.dumps(meta) + "\n" + json.dumps(rec1) + "\n", encoding="utf-8")
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    policy = make_policy("frame-division-nofc", 8, n_regions=2)
    out = TcpTransport(
        policy, "echo", lambda a, lane: (a.seq, lane),
        FarmOptions(n_workers=2, telemetry=tel, blackbox_dir=str(tmp_path)),
        recovery=RecoveryOptions(startup_timeout=120.0),
    ).run()
    tel.close()
    assert len(out.results) == 16
    validate_events(sink.events)
    ships = [r for r in sink.events if r["name"] == "obs.blackbox"]
    shipped = [s for s in ships if s["attrs"]["pid"] == 99999]
    assert shipped, f"no obs.blackbox for the seeded dump in {ships}"
    attrs = shipped[0]["attrs"]
    assert attrs["role"] == "worker" and attrs["records"] >= 2
    persisted = Path(attrs["path"])
    assert persisted.exists()
    dump = read_blackbox(persisted)
    assert dump[0]["attrs"]["pid"] == 99999 and dump[1]["name"] == "net.pong"


def test_blackbox_round_trip_on_mid_frame_kill(tmp_path, assert_one_fold):
    """The acceptance drill: kill a TCP worker daemon mid-frame; its black
    box must land, parse, and stitch into the master trace with the final
    in-flight task span recovered and zero orphan spans."""
    spec = AnimationSpec.newton(n_frames=4, width=24, height=18)
    reference = LocalRenderFarm(spec, executor="serial",
                                grid_resolution=12).render_reference()
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    farm = LocalRenderFarm(
        spec, n_workers=2, schedule="adaptive", transport="tcp",
        fault_plan=FaultPlan([FaultPlan.kill_worker(0, 1, "frames")]), blackbox_dir=tmp_path,
        grid_resolution=12, telemetry=tel,
    )
    out = farm.render()
    tel.close()
    assert out.n_crashes >= 1
    assert out.frames.tobytes() == reference.frames.tobytes()
    validate_events(sink.events)

    losses = [r for r in sink.events if r.get("name") == "net.worker.lost"]
    pointed = [r for r in losses if r["attrs"]["blackbox"]]
    assert pointed, f"no loss event carries a blackbox pointer: {losses}"
    box_path = Path(pointed[0]["attrs"]["blackbox"])
    assert box_path.exists()
    dump = read_blackbox(box_path)
    assert dump[0]["type"] == "blackbox"
    assert dump[0]["attrs"]["reason"] == "die-after-frames"
    assert dump[0]["attrs"]["role"] == "worker"

    merged, n_added = stitch_blackbox(sink.events, dump)
    assert n_added >= 1
    assert find_orphan_spans(merged) == []
    open_tasks = [r for r in merged if r.get("open") and r.get("name") == "task"]
    assert open_tasks, "the victim's in-flight task span was not recovered"
    validate_events(merged)
    # The stitched stream folds like any other: the recovered span is a
    # task the live fold never saw.
    n_spans = [sum(tl.n_tasks for tl in assert_one_fold(ev).timelines().values())
               for ev in (sink.events, merged)]
    assert n_spans[1] == n_spans[0] + len(open_tasks)
