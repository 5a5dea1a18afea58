"""repro.obs — distributed tracing and live monitoring for the render farm.

The paper's results are claims about *where time goes* on a network of
workstations: idle lanes under static sequence division, demand-driven
load balance, stragglers.  This package turns the telemetry spine
(:mod:`repro.telemetry`) plus the wire protocol (:mod:`repro.net`) into
an end-to-end observability layer that can reproduce that analysis from
event data alone:

* :mod:`~repro.obs.trace` — run/trace identity, the task-envelope trace
  context workers parent their spans under, and the orphan-span check;
* :mod:`~repro.obs.analysis` — the paper-style utilization/Gantt report
  text, the sequence-vs-frame-division load-balance contrast, and the
  black-box stitch;
* :mod:`~repro.obs.flight` — the per-process flight recorder (black box);
* :mod:`~repro.obs.metrics` — the online EWMA straggler detector;
* :mod:`~repro.obs.chrometrace` — Chrome trace-event JSON export, one
  track per worker lane, loadable in Perfetto / ``chrome://tracing``;
* :mod:`~repro.obs.live` — a read-only JSON status endpoint over
  stdlib ``http.server`` plus the ``repro top`` terminal view.

The numbers themselves — live state, percentiles, the report, utilization
— are views of the one :class:`repro.telemetry.RunFold`.  Everything
consumes the pinned event schema (v8), so the same tooling works on a real
TCP farm run, a process-pool run, and a virtual-clock simulator replay.
"""

from ..telemetry.fold import EXPOSITION_CONTENT_TYPE, prometheus_name
from .analysis import (
    UtilizationReport,
    WorkerTimeline,
    compare_division,
    format_utilization,
    stitch_blackbox,
    utilization_report,
    worker_timelines,
)
from .chrometrace import chrome_trace, write_chrome_trace
from .flight import FlightRecorder, blackbox_filename, open_span_records, read_blackbox
from .live import StatusServer, fetch_status, render_jobs, render_status
from .metrics import StragglerDetector
from .trace import (
    FLIGHT_PREFIX,
    TraceContext,
    find_orphan_spans,
    flight_span_id,
    new_run_id,
    worker_session,
)

__all__ = [
    "EXPOSITION_CONTENT_TYPE",
    "FLIGHT_PREFIX",
    "FlightRecorder",
    "StatusServer",
    "StragglerDetector",
    "TraceContext",
    "UtilizationReport",
    "WorkerTimeline",
    "blackbox_filename",
    "chrome_trace",
    "compare_division",
    "fetch_status",
    "find_orphan_spans",
    "flight_span_id",
    "format_utilization",
    "new_run_id",
    "open_span_records",
    "prometheus_name",
    "read_blackbox",
    "render_jobs",
    "render_status",
    "stitch_blackbox",
    "utilization_report",
    "worker_session",
    "worker_timelines",
    "write_chrome_trace",
]
