"""Flight recorder: always-on ring buffers dumped as crash black boxes.

Every process in a farm — master, worker daemon, service daemon, shard
session — keeps a bounded ring of its most recent telemetry records and
protocol-frame notes.  The ring costs one deque append per record and is
invisible until something dies; then it is dumped atomically as
``blackbox_<role>_<pid>.jsonl`` into the run directory, preserving the
victim's last seconds for post-mortem stitching
(:func:`repro.obs.analysis.stitch_blackbox`).

Dump triggers:

* **fault injection** — the worker's ``--die-after`` / ``--die-after-frames``
  kill paths dump before ``os._exit``;
* **SIGTERM** — :meth:`FlightRecorder.install` hooks the signal (main
  thread only) and dumps before the process honours it;
* **unhandled exception** — ``sys.excepthook`` is chained the same way;
* **master-observed worker loss** — the master dumps its own ring and
  points the ``net.worker.lost`` event at whichever dump the victim left.

Because worker processes build short-lived per-task telemetry sessions
the daemon never sees, the recorder taps the process-global emission path
(:func:`repro.telemetry.set_flight_tap`) instead of registering as a
per-instance sink — every record from every session in the process lands
in the one ring.  At dump time, spans still *open* (a task killed
mid-frame has emitted nothing for itself yet) are synthesized from the
live sessions' span stacks (:func:`repro.telemetry.live_sessions`) with
the duration measured to the moment of death and an ``"open": true``
marker, which is what lets the stitched trace show the victim's final
in-flight work with zero orphan spans.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from collections import deque
from pathlib import Path

from ..durable import atomic_write
from ..telemetry import SCHEMA_VERSION, live_sessions, set_flight_tap

__all__ = [
    "FlightRecorder",
    "blackbox_filename",
    "open_span_records",
    "read_blackbox",
    "write_blackbox",
]

#: Default ring capacity (records). ~2k JSONL lines is a few hundred KiB —
#: enough for several seconds of a busy worker's telemetry.
DEFAULT_CAPACITY = 2048

#: Recorders currently tapped into the spine.  More than one can coexist
#: in a process (a render service running an in-process farm master has a
#: "service" and a "master" box); each sees every record, each dumps to
#: its own role-named file.
_RECORDERS: list["FlightRecorder"] = []


def _tap_dispatch(rec: dict) -> None:
    for recorder in _RECORDERS:
        recorder.record(rec)


def _disarm_after_fork() -> None:
    # A fork dumps no parent's ring; newest-first unchains SIGTERM/excepthook.
    for recorder in reversed(_RECORDERS[:]):
        recorder.uninstall()


os.register_at_fork(after_in_child=_disarm_after_fork)


def blackbox_filename(role: str, pid: int) -> str:
    return f"blackbox_{role}_{int(pid)}.jsonl"


def write_blackbox(out_dir, role: str, pid: int, records) -> Path:
    """Write one black box, a JSON record per line, atomically; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = "".join(json.dumps(r, separators=(",", ":"), default=str) + "\n" for r in records)
    return atomic_write(out_dir / blackbox_filename(role, pid), text.encode("utf-8"))


def open_span_records(t_now: float | None = None) -> list[dict]:
    """Synthesize close records for every span still open in this process.

    Span attrs are populated at open time at every emission site (mid-span
    refinements like ray counts keep their placeholder values), so the
    synthesized records stay schema-valid.  Each carries ``"open": true``
    so the analysis can tell a crash-truncated span from a real close.
    """
    out: list[dict] = []
    for tel in live_sessions():
        try:
            now = tel.now() if t_now is None else t_now
            for h in list(tel._span_stack):
                rec = {
                    "v": SCHEMA_VERSION,
                    "type": "span",
                    "name": h.name,
                    "t": h.t0,
                    "dur": max(0.0, now - h.t0),
                    "span": h.span_id,
                    "parent": h.parent_id,
                    "attrs": dict(h.attrs),
                    "open": True,
                }
                if tel.run_id:
                    rec["run"] = tel.run_id
                out.append(rec)
        except Exception:
            continue  # a half-torn session must not block the dump
    return out


def read_blackbox(path) -> list[dict]:
    """Parse a dump back into records (tolerates a torn final line)."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                break  # the process died mid-write; keep what parsed
    return records


class FlightRecorder:
    """One process's black box.

    Parameters
    ----------
    role:
        Short process label baked into the dump filename
        (``master`` / ``worker`` / ``service`` / ``shard``).
    out_dir:
        Where dumps land.  ``None`` disables file dumps (the records are
        still collected and can ship over the wire via :meth:`records`).
    capacity:
        Ring size in records; the oldest fall off.
    """

    def __init__(self, role: str, out_dir=None, capacity: int = DEFAULT_CAPACITY):
        self.role = str(role)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.pid = os.getpid()
        self._ring: deque = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._dumped_path: Path | None = None
        self._installed = False
        self._prev_excepthook = None
        self._prev_sigterm = None
        #: Optional callable invoked with every tapped record (the worker
        #: daemon hangs its ``--die-after-frames`` counter here).
        self.hook = None

    # -- ingestion -------------------------------------------------------------
    def record(self, rec: dict) -> None:
        """Tap target: remember one telemetry record."""
        with self._lock:
            self._ring.append(rec)
        hook = self.hook
        if hook is not None:
            hook(rec)

    def note_frame(self, direction: str, msg: str, nbytes: int) -> None:
        """Remember one protocol frame (sent or received) as a wire note."""
        with self._lock:
            self._ring.append(
                {
                    "type": "wire",
                    "name": f"wire.{direction}",
                    "t": time.perf_counter(),
                    "attrs": {"msg": str(msg), "nbytes": int(nbytes)},
                }
            )

    # -- installation ----------------------------------------------------------
    def install(self, signals: bool = True) -> "FlightRecorder":
        """Start recording: tap the telemetry spine and (optionally) hook
        SIGTERM + ``sys.excepthook`` to dump before dying."""
        if self._installed:
            return self
        self._installed = True
        _RECORDERS.append(self)
        set_flight_tap(_tap_dispatch)
        if signals:
            try:
                self._prev_sigterm = signal.signal(signal.SIGTERM, self._on_sigterm)
            except ValueError:
                self._prev_sigterm = None  # not the main thread
            self._prev_excepthook = sys.excepthook
            sys.excepthook = self._on_excepthook
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        self._installed = False
        if self in _RECORDERS:
            _RECORDERS.remove(self)
        if not _RECORDERS:
            set_flight_tap(None)
        if self._prev_excepthook is not None:
            sys.excepthook = self._prev_excepthook
            self._prev_excepthook = None
        if self._prev_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, self._prev_sigterm)
            except ValueError:
                pass  # uninstalled off the main thread: only that thread may touch handlers
            self._prev_sigterm = None

    def _on_sigterm(self, signum, frame) -> None:
        self.dump("sigterm")
        prev = self._prev_sigterm
        if callable(prev):
            prev(signum, frame)
        else:
            os._exit(128 + int(signum))

    def _on_excepthook(self, exc_type, exc, tb) -> None:
        if not issubclass(exc_type, (KeyboardInterrupt, SystemExit)):
            self.dump(f"unhandled:{exc_type.__name__}")
        (self._prev_excepthook or sys.__excepthook__)(exc_type, exc, tb)

    # -- dumping ---------------------------------------------------------------
    def records(self, reason: str = "manual") -> list[dict]:
        """The dump payload: a meta header, the ring, then synthesized
        closes for spans still open at this instant."""
        with self._lock:
            ring = list(self._ring)
        meta = {
            "type": "blackbox",
            "name": "meta",
            "t": time.perf_counter(),
            "attrs": {
                "role": self.role,
                "pid": self.pid,
                "reason": str(reason),
                "n_ring": len(ring),
            },
        }
        return [meta, *ring, *open_span_records()]

    def dump(self, reason: str = "manual", out_dir=None) -> Path | None:
        """Write the black box atomically; returns the path (``None`` when
        no directory is configured).  Re-dumping overwrites — the latest
        seconds before death are the ones that matter."""
        target_dir = Path(out_dir) if out_dir is not None else self.out_dir
        if target_dir is None:
            return None
        try:
            path = write_blackbox(target_dir, self.role, self.pid, self.records(reason))
        except OSError:
            return None  # a dying process must not die harder over its dump
        self._dumped_path = path
        return path

    @property
    def dumped_path(self) -> Path | None:
        return self._dumped_path
