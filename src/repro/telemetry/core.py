"""Tracing and metrics core: spans, counters, gauges, events, clocks.

One :class:`Telemetry` instance owns a clock and a list of sinks.  Every
emission is a plain dict (one JSONL line when logged to disk):

``{"v": 1, "type": ..., "name": ..., "t": ..., "attrs": {...}}``

with spans adding ``"dur"`` and ``"parent"``/``"span"`` ids, and
counter/gauge records adding ``"value"``.  The schema of the *named*
events (which names exist, which attr keys they carry) is pinned in
:mod:`repro.telemetry.schema` so the real farm and the cluster simulator
stay comparable record-for-record.

Two clock domains exist: real runs use ``time.perf_counter`` and the
discrete-event simulator plugs in a :class:`VirtualClock` reading
``sim.now`` — the emitted records are indistinguishable in shape, which is
what lets one report renderer serve both.

A disabled instance (``Telemetry(enabled=False)`` or the shared
:data:`NULL`) reduces every call to a single attribute test, so
instrumentation can stay unconditionally in hot paths.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from contextlib import contextmanager

from .hist import LogHistogram
from .schema import SCHEMA_VERSION

__all__ = ["Telemetry", "VirtualClock", "NULL", "parse_records", "set_flight_tap", "live_sessions"]

#: Process-global observer called with every record any enabled session
#: emits.  The flight recorder (:mod:`repro.obs.flight`) installs itself
#: here rather than as a per-instance sink because worker processes build
#: short-lived per-task sessions the daemon never sees — a tap on the one
#: shared emission path catches them all.
_FLIGHT_TAP = None

#: Weak registry of live *enabled* sessions, so a crash-time dump can walk
#: still-open span stacks and synthesize their close records (none in a fork).
_LIVE: "weakref.WeakSet[Telemetry]" = weakref.WeakSet()
os.register_at_fork(after_in_child=_LIVE.clear)


def parse_records(buffer) -> list[dict]:
    """Another process's event buffer (a list of records, or its JSON text)
    checked whole: records with numeric times, else ``ValueError``."""
    events = json.loads(buffer) if isinstance(buffer, str) else buffer
    if not isinstance(events, list) or not all(
        isinstance(r, dict) and isinstance(r.get("t", 0.0), (int, float)) for r in events
    ):
        raise ValueError(f"not an event buffer: {str(buffer)[:80]!r}")
    return events


def set_flight_tap(tap) -> None:
    """Install (or clear, with ``None``) the process-global record tap."""
    global _FLIGHT_TAP
    _FLIGHT_TAP = tap


def live_sessions() -> list["Telemetry"]:
    """Every enabled :class:`Telemetry` currently alive in this process."""
    return list(_LIVE)


class VirtualClock:
    """A clock that reads simulated seconds from a callable.

    The cluster simulator passes ``lambda: pvm.sim.now`` so spans measured
    inside a strategy replay carry *virtual* durations — the same fields,
    a different time base.
    """

    def __init__(self, now_fn):
        self._now_fn = now_fn

    def __call__(self) -> float:
        return float(self._now_fn())


class _SpanHandle:
    """Book-keeping for one open span (returned by ``Telemetry.span``)."""

    __slots__ = ("name", "attrs", "t0", "span_id", "parent_id")

    def __init__(self, name: str, attrs: dict, t0: float, span_id: int, parent_id: int | None):
        self.name = name
        self.attrs = attrs
        self.t0 = t0
        self.span_id = span_id
        self.parent_id = parent_id


class Telemetry:
    """A tracing + metrics session.

    Parameters
    ----------
    sinks:
        Objects with an ``emit(record: dict)`` method (and optionally
        ``close()``).  See :mod:`repro.telemetry.sinks`.
    clock:
        Zero-argument callable returning seconds.  Defaults to
        ``time.perf_counter``; the simulator passes a :class:`VirtualClock`.
    enabled:
        ``False`` turns every method into a near-free no-op.
    run_id:
        Optional tag copied onto every record (distinguishes merged logs).
    span_ns:
        Namespace prefix for span ids.  A bare session hands out integer
        ids (1, 2, ...); a namespaced one hands out strings
        (``"w0.3:1"``, ...), which is what keeps worker-side span ids
        collision-free when many worker sessions are merged into one
        master event stream (:mod:`repro.obs`).
    root_parent:
        Parent id stamped on spans opened with an *empty* local stack.
        A worker session carries the master-side flight span's id here,
        so its ``task`` span parents correctly in the merged trace.
    """

    def __init__(
        self,
        sinks=(),
        clock=None,
        enabled: bool = True,
        run_id: str = "",
        span_ns: str = "",
        root_parent=None,
    ):
        self.enabled = bool(enabled)
        self.sinks = list(sinks)
        self.clock = clock if clock is not None else time.perf_counter
        self.run_id = run_id
        self.span_ns = span_ns
        self.root_parent = root_parent
        self._counters: dict[str, float] = {}
        self._hists: dict[str, LogHistogram] = {}
        self._span_stack: list[_SpanHandle] = []
        self._next_span_id = 1
        self._closed = False
        if self.enabled:
            _LIVE.add(self)

    # -- clock ----------------------------------------------------------------
    def use_clock(self, clock) -> None:
        """Swap the time base (the simulator binds ``sim.now`` post-spawn)."""
        self.clock = clock

    def now(self) -> float:
        return self.clock()

    # -- emission -------------------------------------------------------------
    def emit(self, record: dict) -> None:
        if not self.enabled:
            return
        record.setdefault("v", SCHEMA_VERSION)
        if self.run_id:
            record.setdefault("run", self.run_id)
        for sink in self.sinks:
            sink.emit(record)
        if _FLIGHT_TAP is not None:
            _FLIGHT_TAP(record)

    def event(self, name: str, **attrs) -> None:
        """A point event at the current clock time."""
        if not self.enabled:
            return
        self.emit({"type": "event", "name": name, "t": self.now(), "attrs": attrs})

    # -- spans ----------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """Hierarchical timed region; emits one ``span`` record on exit.

        The handle is yielded so attrs discovered mid-span can be added:

        >>> with tel.span("frame", frame=3) as sp:      # doctest: +SKIP
        ...     sp.attrs["n_computed"] = work()
        """
        if not self.enabled:
            yield _SpanHandle(name, attrs, 0.0, 0, None)
            return
        handle = self._open_span(name, attrs)
        try:
            yield handle
        finally:
            self._close_span(handle)

    def new_span_id(self):
        """Allocate one span id without opening a span (transports emit
        externally-timed spans whose id must be known at dispatch time so
        it can ride to the worker inside the task envelope)."""
        sid = self._next_span_id
        self._next_span_id += 1
        return f"{self.span_ns}{sid}" if self.span_ns else sid

    def _open_span(self, name: str, attrs: dict) -> _SpanHandle:
        parent = self._span_stack[-1].span_id if self._span_stack else self.root_parent
        handle = _SpanHandle(name, attrs, self.now(), self.new_span_id(), parent)
        self._span_stack.append(handle)
        return handle

    def _close_span(self, handle: _SpanHandle) -> None:
        t1 = self.now()
        if self._span_stack and self._span_stack[-1] is handle:
            self._span_stack.pop()
        self.emit(
            {
                "type": "span",
                "name": handle.name,
                "t": handle.t0,
                "dur": max(0.0, t1 - handle.t0),
                "span": handle.span_id,
                "parent": handle.parent_id,
                "attrs": handle.attrs,
            }
        )

    def emit_span(self, name: str, t0: float, dur: float, *, span=None, parent=None, **attrs) -> None:
        """A span measured externally (simulator masters time their own
        dispatch/completion pairs across generator yields, where a context
        manager cannot live).  ``span``/``parent`` override the allocated
        id and root parent — the transports pre-allocate flight-span ids
        with :meth:`new_span_id` so workers can parent under them."""
        if not self.enabled:
            return
        self.emit(
            {
                "type": "span",
                "name": name,
                "t": t0,
                "dur": max(0.0, dur),
                "span": span if span is not None else self.new_span_id(),
                "parent": parent if parent is not None else self.root_parent,
                "attrs": attrs,
            }
        )

    # -- metrics ----------------------------------------------------------------
    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate; totals are emitted once by :meth:`flush_counters`."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float, **attrs) -> None:
        """An instantaneous measurement (emitted immediately)."""
        if not self.enabled:
            return
        self.emit(
            {"type": "gauge", "name": name, "t": self.now(), "value": value, "attrs": attrs}
        )

    def histogram(self, name: str, value: float) -> None:
        """Record one observation into a mergeable log-bucketed sketch; a
        distribution summary (count/min/max/mean/p50/p95/p99 + the digest)
        is emitted by :meth:`flush_counters`."""
        if not self.enabled:
            return
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = LogHistogram()
        h.add(value)

    @property
    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    def flush_counters(self) -> None:
        """Emit one record per accumulated counter/histogram and reset."""
        if not self.enabled:
            return
        t = self.now()
        for name in sorted(self._counters):
            self.emit(
                {"type": "counter", "name": name, "t": t, "value": self._counters[name], "attrs": {}}
            )
        self._counters.clear()
        for name in sorted(self._hists):
            h = self._hists[name]
            self.emit(
                {
                    "type": "histogram",
                    "name": name,
                    "t": t,
                    "value": h.count,
                    "attrs": h.summary(),
                }
            )
        self._hists.clear()

    # -- cross-process merge -------------------------------------------------------
    def serialize_events(self, events: list[dict]) -> str:
        """JSON-encode a worker-side event buffer for transport."""
        return json.dumps(events, separators=(",", ":"))

    def absorb(self, payload: str | list[dict] | None, t_offset: float = 0.0) -> int:
        """Re-emit events serialized by a worker process into this session's
        sinks (keeping the worker's timestamps).  Returns the event count.

        ``t_offset`` is added to each record's timestamp — the master's
        per-worker clock-skew correction (estimated from PING/PONG round
        trips), so remote spans land on the master's time axis.
        """
        if not payload:
            return 0
        events = json.loads(payload) if isinstance(payload, str) else payload
        for record in events:
            record = dict(record)
            if t_offset and "t" in record:
                record["t"] = record["t"] + t_offset
            self.emit(record)
        return len(events)

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Flush counters and close every sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.flush_counters()
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared disabled instance: pass-through default for every ``telemetry=``
#: parameter in the system, so call sites never need a None check.
NULL = Telemetry(enabled=False)
