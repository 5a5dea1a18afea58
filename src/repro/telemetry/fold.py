"""RunFold: the one incremental fold of a run's event stream.

Every question the tooling asks of a run — what is in flight where
(``/status``, ``repro top``), latency percentiles and worker health
(``/metrics``), Table 1's rays and computed/copied pixels (``repro
telemetry``), who stood idle (the utilization report) — is answered from
one state, folded one record at a time by one ``name -> handler`` table
under one lock.  The views (:meth:`RunFold.snapshot`,
:meth:`~RunFold.exposition`, :meth:`~RunFold.report`,
:meth:`~RunFold.utilization`) are pure reads of that state, so they
cannot disagree, and a live run and :meth:`RunFold.of` over its JSONL log
are the same code path.

A fold is an ordinary telemetry sink (``emit``/``close``).  ``run.start``
clears the per-run state, so one attached for a service's lifetime stays
bounded; sketches and counters accumulate, as Prometheus expects.

Lock rule: handlers run under the lock and never emit.  The straggler
detector does emit (``health.*``, into the bound session, which re-enters
this sink on the emitting thread), so it runs *after* the lock is
released.  Views copy under the lock and format (JSON, exposition text)
outside it, so a slow poller never stalls the emitter.
"""

from __future__ import annotations

import re
import threading
import time
from collections import Counter
from dataclasses import replace
from statistics import fmean, pstdev

from .hist import LogHistogram
from .report import TelemetryReport, UtilizationReport, WorkerTimeline
from .schema import RAY_KEYS

__all__ = ["RunFold", "report_from_events", "prometheus_name", "EXPOSITION_CONTENT_TYPE"]

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4"

#: Numeric health states for the gauge (and the order of severity).
HEALTH_STATES = {"ok": 0, "straggler": 1, "lost": 2}

_NAME_RX = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """``task.duration`` -> ``repro_task_duration`` (exposition-safe)."""
    clean = _NAME_RX.sub("_", str(name)).strip("_")
    if not clean or not (clean[0].isalpha() or clean[0] == "_"):
        clean = f"m_{clean}"
    return f"repro_{clean}"


#: A worker's row, minus its name and its :class:`WorkerTimeline` lane.
_WORKER_ROW = dict(
    host="", cores=0, score=0.0,  # from its join
    n_done=0, busy=0.0,  # accepted flights; task-span seconds
    rtt=None, offset=0.0,
    health=None,  # ok | straggler | lost, once any event has said so
    last_heartbeat=None,  # wall-clock time of the last sign of life
    rays_local=0, rays_forwarded=0, rays_received=0,  # object-space sharding
)

#: Run totals /status reports as they stand.
_TOTALS = ("tasks_done", "tasks_failed", "tiles_done", "tile_bytes", "frames_salvaged",
           "shard_bytes")

_FRAME_KEYS = ("n_computed", "n_copied", *RAY_KEYS)


class RunFold:
    """Run state folded from the telemetry stream (a sink), and its views.

    ``clock`` stamps heartbeats and in-flight ages (wall time by default).
    ``detector`` is an optional :class:`repro.obs.StragglerDetector` fed
    every ``task`` span; its ``health.*`` events go to the session given
    to :meth:`bind` — normally the one this fold is a sink of.
    """

    def __init__(self, clock=None, detector=None):
        self._lock = threading.Lock()
        self._clock = clock if clock is not None else time.time
        self.detector = detector
        self._tel = None
        self._hists: dict[str, LogHistogram] = {}
        self._counters: dict[str, float] = {}
        self._n_events = 0
        self._n_runs = 0  # run.start records seen: a resumed run dir appends
        self._reset_run()

    def _reset_run(self) -> None:
        self._run: dict | None = None  # run.start attrs (+ "run" id, "t")
        self._end: dict | None = None  # run.end attrs (+ "t")
        self._done = False
        self._t_start: float | None = None  # wall clock at the run's first record
        self._workers: dict[str, dict] = {}
        self._in_flight: dict[int, dict] = {}  # seq -> assignment info
        self._frames: dict[int, dict[str, int]] = {}  # frame -> pixel/ray sums
        self._n = dict.fromkeys(_TOTALS, 0)
        self._n_task_records = 0
        # Attempt outcomes arrive on two channels describing the same
        # dispatches: live obs.flight spans (traced transports) and the
        # run-end task.attempt summary.  Fold them separately; the live
        # surface prefers the flights, so traced runs don't double-count.
        self._attempts_flight: Counter = Counter()
        self._attempts_sup: Counter = Counter()
        self._recovery: Counter = Counter()
        self._losses: list[dict] = []
        self._worker_events: list[dict] = []  # the run's own `worker` rows
        self._shard_owner: dict[int, str] = {}  # shard -> current owner

    @classmethod
    def of(cls, events) -> "RunFold":
        """The fold of a finished event list (``read_events`` output)."""
        fold = cls()
        for record in events:
            fold.emit(record)
        return fold

    def bind(self, telemetry) -> "RunFold":
        """Set the session the detector's ``health.*`` events are emitted into."""
        self._tel = telemetry
        return self

    # -- sink protocol -------------------------------------------------------
    def emit(self, record: dict) -> None:
        name = record.get("name")
        rtype = record.get("type")
        handler = self._HANDLERS.get(name) or self._TYPE_HANDLERS.get(rtype)
        attrs = record.get("attrs") or {}
        with self._lock:
            self._n_events += 1
            route = self._LATENCY_ROUTES.get(name)
            if route is not None and route[0] in attrs:
                self._hist(route[1]).add(float(attrs[route[0]]))
            if handler is not None:
                handler(self, attrs, record)
            if name in self._SIGNS_OF_LIFE:
                self._worker(attrs.get("worker", "?"))["last_heartbeat"] = self._clock()
            if self._t_start is None:
                self._t_start = self._clock()
        if self.detector is not None and name == "task" and rtype == "span":
            worker = str(attrs.get("worker", "?"))
            flip = self.detector.observe(
                worker, float(record.get("dur", 0.0)), telemetry=self._tel
            )
            if flip is not None:
                with self._lock:
                    self._worker(worker)["health"] = "straggler" if flip == "straggler" else "ok"

    def close(self) -> None:
        with self._lock:
            self._done = True

    # -- fold handlers (called under the lock) -------------------------------
    def _worker(self, name) -> dict:
        name = str(name)
        w = self._workers.get(name)
        if w is None:
            w = self._workers[name] = {**_WORKER_ROW, "lane": WorkerTimeline(name)}
        return w

    def _hist(self, name: str) -> LogHistogram:
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = LogHistogram()
        return h

    def _on_run_start(self, attrs, record) -> None:
        self._reset_run()
        self._n_runs += 1
        self._run = {**attrs, "run": record.get("run", ""), "t": float(record.get("t", 0.0))}

    def _on_run_end(self, attrs, record) -> None:
        self._done = True
        self._end = {**attrs, "t": float(record.get("t", 0.0))}

    def _on_join(self, attrs, record) -> None:
        w = self._worker(attrs.get("worker", "?"))
        w["host"] = str(attrs.get("host", ""))
        w["cores"] = int(attrs.get("cores", 0))
        w["score"] = float(attrs.get("score", 0.0))
        w["health"] = "ok"  # a (re)join clears lost/straggler state

    def _on_assign(self, attrs, record) -> None:
        seq = int(attrs.get("seq", -1))
        self._in_flight[seq] = {
            "worker": str(attrs.get("worker", "?")),
            "seq": seq,
            "frame0": int(attrs.get("frame0", 0)),
            "frame1": int(attrs.get("frame1", 0)),
            "since": self._clock(),
        }

    def _on_pong(self, attrs, record) -> None:
        self._worker(attrs.get("worker", "?"))["rtt"] = float(attrs.get("rtt", 0.0))

    def _on_clock(self, attrs, record) -> None:
        w = self._worker(attrs.get("worker", "?"))
        w["offset"] = float(attrs.get("offset", 0.0))
        w["rtt"] = float(attrs.get("rtt", 0.0))

    def _on_result(self, attrs, record) -> None:
        self._in_flight.pop(int(attrs.get("seq", -1)), None)

    def _on_flight(self, attrs, record) -> None:
        outcome = str(attrs.get("outcome", "ok"))
        self._attempts_flight[outcome] += 1
        self._in_flight.pop(int(attrs.get("seq", -1)), None)
        if outcome == "ok":
            self._n["tasks_done"] += 1
            w = self._worker(attrs.get("worker", "?"))
            w["n_done"] += 1
            w["lane"].flight_time += float(record.get("dur", 0.0))
        else:
            self._n["tasks_failed"] += 1

    def _on_task_attempt(self, attrs, record) -> None:
        self._attempts_sup[str(attrs.get("outcome", "?"))] += 1

    def _on_task(self, attrs, record) -> None:
        self._n_task_records += 1
        if record.get("type") != "span":
            return
        w = self._worker(attrs.get("worker", "?"))
        t0, dur = float(record.get("t", 0.0)), float(record.get("dur", 0.0))
        w["busy"] += dur
        w["health"] = w["health"] or "ok"
        lane = w["lane"]
        lane.segments.append((t0, t0 + dur))
        lane.n_tasks += 1
        lane.rays += int(attrs.get("rays", 0))
        self._hist("task.duration").add(dur)

    def _on_frame(self, attrs, record) -> None:
        row = self._frames.setdefault(int(attrs.get("frame", -1)), dict.fromkeys(_FRAME_KEYS, 0))
        for key in _FRAME_KEYS:
            row[key] += int(attrs.get(key, 0))

    def _on_worker(self, attrs, record) -> None:
        self._worker_events.append({
            "worker": str(attrs.get("worker", "?")),
            "busy": float(attrs.get("busy", 0.0)),
            "n_tasks": int(attrs.get("n_tasks", 0)),
            "utilization": float(attrs.get("utilization", 0.0)),
        })

    def _on_recovery(self, attrs, record) -> None:
        self._recovery[str(attrs.get("kind", "?"))] += 1

    def _on_lost(self, attrs, record) -> None:
        seq = attrs.get("seq")
        seq = -1 if seq is None else int(seq)
        self._losses.append({
            "worker": str(attrs.get("worker", "?")),
            "reason": str(attrs.get("reason", "?")),
            "seq": seq,
            "blackbox": str(attrs.get("blackbox", "") or ""),
        })
        self._worker(attrs.get("worker", "?"))["health"] = "lost"
        if seq >= 0:
            self._in_flight.pop(seq, None)

    def _on_straggler(self, attrs, record) -> None:
        self._worker(attrs.get("worker", "?"))["health"] = "straggler"

    def _on_recovered(self, attrs, record) -> None:
        w = self._worker(attrs.get("worker", "?"))
        if w["health"] == "straggler":
            w["health"] = "ok"

    def _on_tile(self, attrs, record) -> None:
        self._n["tiles_done"] += 1
        self._n["tile_bytes"] += int(attrs.get("nbytes", 0))

    def _on_salvage(self, attrs, record) -> None:
        self._n["frames_salvaged"] += int(attrs.get("frame_done", 0)) - int(attrs.get("frame0", 0))

    def _on_shard_rays(self, attrs, record) -> None:
        w = self._worker(attrs.get("worker", "?"))
        self._shard_owner[int(attrs.get("shard", -1))] = w["lane"].worker
        w["rays_local"] += int(attrs.get("n_local", 0))
        w["rays_forwarded"] += int(attrs.get("n_forwarded", 0))

    def _on_shard_xfer(self, attrs, record) -> None:
        self._worker(attrs.get("worker", "?"))["rays_received"] += int(attrs.get("n_rays", 0))
        self._n["shard_bytes"] += int(attrs.get("nbytes", 0))  # requests + replies

    def _on_counter(self, attrs, record) -> None:
        name = record.get("name")
        self._counters[name] = self._counters.get(name, 0) + record.get("value", 0)

    def _on_histogram(self, attrs, record) -> None:
        # Fold a flushed worker-side digest — but not for series the fold
        # already builds live from the raw records (the master's own
        # end-of-run flush would double-count those).
        name, digest = record.get("name"), attrs.get("digest")
        if name in self._OWNED or not isinstance(digest, dict):
            return
        try:
            folded = LogHistogram.from_dict(digest)
            if name in self._hists:
                self._hists[name].merge(folded)  # ValueError on another rel_err: keep ours
            else:
                self._hists[name] = folded
        except (TypeError, ValueError, KeyError):
            return

    #: Every name here is a key of ``schema.EVENT_SCHEMA`` (tested).
    _HANDLERS = {
        "run.start": _on_run_start,
        "run.end": _on_run_end,
        "net.worker.join": _on_join,
        "net.assign": _on_assign,
        "net.pong": _on_pong,
        "net.result": _on_result,
        "net.worker.lost": _on_lost,
        "health.straggler": _on_straggler,
        "health.recovered": _on_recovered,
        "obs.clock": _on_clock,
        "obs.flight": _on_flight,
        "task.attempt": _on_task_attempt,
        "task": _on_task,
        "frame": _on_frame,
        "worker": _on_worker,
        "recovery": _on_recovery,
        "dfb.tile": _on_tile,
        "dfb.salvage": _on_salvage,
        "shard.rays": _on_shard_rays,
        "shard.xfer": _on_shard_xfer,
    }

    #: Metric records carry free-form names and route by record type.
    _TYPE_HANDLERS = {"counter": _on_counter, "histogram": _on_histogram}

    #: Events that refresh their worker's heartbeat.
    _SIGNS_OF_LIFE = frozenset(
        {"net.worker.join", "net.assign", "net.pong", "net.result", "dfb.tile", "shard.rays"}
    )

    #: event name -> (attr, sketch fed with it).
    _LATENCY_ROUTES = {
        "net.result": ("duration", "net.result.duration"),
        "net.pong": ("rtt", "net.rtt"),
        "task.attempt": ("duration", "task.attempt.duration"),
        "dfb.tile": ("nbytes", "dfb.tile.nbytes"),
    }

    #: Series built live from raw records; flushed digests with these
    #: names describe observations the fold has already seen.
    _OWNED = frozenset({"task.duration", *(s for _a, s in _LATENCY_ROUTES.values())})

    # -- shared reads (called under the lock) ----------------------------------
    def _run_int(self, key: str) -> int:
        return int((self._run or {}).get(key, 0))

    def _meta(self, blank: str) -> dict:
        run = self._run or {}
        return {
            **{k: str(run.get(k, blank)) for k in ("engine", "workload", "mode")},
            "n_frames": self._run_int("n_frames"),
            "n_workers": self._run_int("n_workers"),
        }

    def _frame_totals(self) -> dict[str, int]:
        return {key: sum(row[key] for row in self._frames.values()) for key in _FRAME_KEYS}

    def _health(self) -> dict[str, str]:
        return {name: w["health"] for name, w in self._workers.items() if w["health"]}

    def _timelines(self) -> dict[str, WorkerTimeline]:
        """Lanes that rendered (a ``task`` span) or flew (an accepted flight)."""
        return {
            name: replace(w["lane"], segments=list(w["lane"].segments))
            for name, w in self._workers.items()
            if w["lane"].n_tasks or w["n_done"]
        }

    # -- small views -------------------------------------------------------------
    def health(self) -> dict[str, str]:
        with self._lock:
            return self._health()

    def histograms(self) -> dict[str, LogHistogram]:
        with self._lock:
            return dict(self._hists)

    def timelines(self) -> dict[str, WorkerTimeline]:
        """Per-worker busy intervals (``task`` spans) and flight seconds."""
        with self._lock:
            return self._timelines()

    def pixel_totals(self) -> tuple[int, int]:
        """``(computed, copied)`` pixels summed over every ``frame`` event."""
        with self._lock:
            totals = self._frame_totals()
        return totals["n_computed"], totals["n_copied"]

    def worker_rows(self, wall: float) -> list[dict]:
        """The attrs of the run-end ``worker`` events: busy seconds and task
        count per worker that closed a ``task`` span, against ``wall``."""
        with self._lock:
            return [
                {
                    "worker": name,
                    "busy": w["busy"],
                    "n_tasks": w["lane"].n_tasks,
                    "utilization": (w["busy"] / wall) if wall > 0 else 0.0,
                }
                for name, w in sorted(self._workers.items())
                if w["lane"].n_tasks
            ]

    # -- /status -----------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-able copy of the current farm state."""
        now = self._clock()
        with self._lock:
            elapsed = (now - self._t_start) if self._t_start is not None else 0.0
            if self._done and self._end is not None:
                elapsed = float(self._end.get("wall_time", 0.0))
            meta = self._meta("")
            n_frames = meta["n_frames"]
            # A frame is done once its frame events cover the whole image: a
            # block or tile unit finishing is not the frame finishing.
            n_pixels = self._run_int("width") * self._run_int("height")
            frames_done = sum(
                row["n_computed"] + row["n_copied"] >= n_pixels for row in self._frames.values()
            )
            eta = None
            if not self._done and frames_done > 0 and elapsed > 0 and n_frames > frames_done:
                eta = (n_frames - frames_done) * (elapsed / frames_done)
            owned: dict[str, list[int]] = {}
            for shard, owner in sorted(self._shard_owner.items()):
                owned.setdefault(owner, []).append(shard)
            workers = []
            for name, w in sorted(self._workers.items()):
                hb = w["last_heartbeat"]
                workers.append({
                    **{k: w[k] for k in _WORKER_ROW if k != "last_heartbeat"},
                    "worker": name,
                    "busy": round(w["busy"], 6),
                    "health": w["health"] or "ok",
                    "heartbeat_age": (round(now - hb, 3) if hb is not None else None),
                    "shards": owned.get(name, []),
                })
            return {
                **({"run": self._run["run"], **meta} if self._run is not None else {}),
                **self._n,
                "done": self._done,
                "elapsed": round(elapsed, 3),
                "n_events": self._n_events,
                "frames_done": frames_done,
                "tasks_per_sec": round(self._n["tasks_done"] / elapsed if elapsed > 0 else 0.0, 3),
                "eta_seconds": (round(eta, 1) if eta is not None else None),
                "attempts": dict(self._attempts_flight or self._attempts_sup),
                "losses": [{k: x[k] for k in ("worker", "reason", "blackbox")} for x in self._losses],
                "n_shards": len(self._shard_owner),
                "workers": workers,
                "in_flight": [
                    {**a, "age": round(now - a["since"], 3)} for a in self._in_flight.values()
                ],
            }

    # -- /metrics ----------------------------------------------------------------
    def exposition(self) -> tuple[bytes, str]:
        """Prometheus text exposition of the sketches, worker health and
        counters; returns ``(body, content_type)`` — the raw-reply shape
        :class:`~repro.obs.live.StatusServer` routes serve directly."""
        with self._lock:
            hists = {k: (v.count, v.total, v.quantile(0.5), v.quantile(0.95),
                         v.quantile(0.99)) for k, v in self._hists.items()}
            health = self._health()
            counters = dict(self._counters)
            n_records = self._n_events
        lines: list[str] = []

        def family(mname: str, kind: str, text: str, samples) -> None:
            lines.extend((f"# HELP {mname} {text}", f"# TYPE {mname} {kind}", *samples))

        for name in sorted(hists):
            count, total, p50, p95, p99 = hists[name]
            mname = prometheus_name(name)
            family(mname, "summary", f"Streaming quantiles of {name} (log-bucketed).", (
                f'{mname}{{quantile="0.5"}} {p50:.9g}',
                f'{mname}{{quantile="0.95"}} {p95:.9g}',
                f'{mname}{{quantile="0.99"}} {p99:.9g}',
                f"{mname}_sum {total:.9g}",
                f"{mname}_count {count}",
            ))
        if health:
            family("repro_worker_health", "gauge",
                   "Worker health state (0=ok, 1=straggler, 2=lost).",
                   (f'repro_worker_health{{worker="{w}"}} {HEALTH_STATES.get(health[w], 0)}'
                    for w in sorted(health)))
        for name in sorted(counters):
            mname = prometheus_name(name) + "_total"
            family(mname, "counter", f"Accumulated counter {name}.",
                   (f"{mname} {counters[name]:.9g}",))
        family("repro_telemetry_records_total", "counter", "Records folded into the plane.",
               (f"repro_telemetry_records_total {n_records}",))
        return ("\n".join(lines) + "\n").encode("utf-8"), EXPOSITION_CONTENT_TYPE

    #: Route callable for ``StatusServer(routes={"/metrics": fold.route})``.
    route = exposition

    # -- repro telemetry ---------------------------------------------------------
    def report(self) -> TelemetryReport:
        """The Table-1 aggregate :func:`~repro.telemetry.format_report` prints."""
        with self._lock:
            end = self._end
            if end is None:
                # Crashed / partial run: rebuild run.end's totals from the
                # per-frame rows.
                end = self._frame_totals()
                end.update(computed_pixels=end["n_computed"], copied_pixels=end["n_copied"])
            return TelemetryReport(
                **self._meta("?"),
                n_runs=self._n_runs,
                run_id=str((self._run or {}).get("run", "")),
                width=self._run_int("width"),
                height=self._run_int("height"),
                wall_time=float(end.get("wall_time", 0.0)),
                rays={key[len("rays_"):]: int(end.get(key, 0)) for key in RAY_KEYS},
                computed_pixels=int(end.get("computed_pixels", 0)),
                copied_pixels=int(end.get("copied_pixels", 0)),
                n_tasks=int(end.get("n_tasks") or self._n_task_records),
                per_frame={f: dict(row) for f, row in self._frames.items()},
                workers=sorted(self._worker_events, key=lambda w: w["worker"]),
                recovery=dict(self._recovery),
                counters=dict(self._counters),
                losses=[{k: x[k] for k in ("worker", "reason", "seq")} for x in self._losses],
                attempts=dict(self._attempts_sup),
            )

    # -- utilization ---------------------------------------------------------------
    def utilization(self, straggler_z: float = 2.0) -> UtilizationReport:
        """The load-balance analysis :func:`repro.obs.format_utilization` prints.

        The run window is ``run.start`` -> ``run.end`` when present, else the
        span hull.  A lane's straggler flag is set when its *finish time*
        sits more than ``straggler_z`` standard deviations past the mean lane
        finish — the worker everyone else waited for.
        """
        with self._lock:
            lanes = self._timelines()
            totals = self._frame_totals()
            rep = UtilizationReport(
                **self._meta(""),
                rays_total=int((self._end or {}).get("rays_total", 0)),
                n_lost=len(self._losses),
                straggler_z=straggler_z,
            )
            t0 = self._run["t"] if self._run is not None else None
            t1 = self._end["t"] if self._end is not None else None
        if t0 is None:
            t0 = min((tl.start for tl in lanes.values()), default=0.0)
        if t1 is None:
            t1 = max((tl.finish for tl in lanes.values()), default=t0)
        rep.t0, rep.t1 = t0, max(t0, t1)
        computed, copied = totals["n_computed"], totals["n_copied"]
        if computed + copied > 0:
            rep.recompute_frac = computed / (computed + copied)
        if not rep.n_workers:
            rep.n_workers = len(lanes)

        wall = rep.wall
        finishes = [tl.finish for tl in lanes.values()]
        finish_mean = fmean(finishes) if finishes else 0.0
        finish_std = pstdev(finishes, finish_mean) if finishes else 0.0
        for name in sorted(lanes):
            tl = lanes[name]
            z = ((tl.finish - finish_mean) / finish_std) if finish_std > 1e-12 else 0.0
            rep.workers.append(
                {
                    "worker": tl.worker,
                    "busy": tl.busy,
                    "idle": max(0.0, wall - tl.busy),
                    "util": (tl.busy / wall) if wall > 0 else 0.0,
                    "n_tasks": tl.n_tasks,
                    "rays": tl.rays,
                    "comms": tl.comms,
                    "finish": tl.finish,
                    "z": z,
                    "straggler": z >= straggler_z,
                    "segments": tl.segments,
                }
            )
        return rep


def report_from_events(events: list[dict]) -> TelemetryReport:
    """Aggregate an event list (as loaded by :func:`~repro.telemetry.read_events`)."""
    return RunFold.of(events).report()
