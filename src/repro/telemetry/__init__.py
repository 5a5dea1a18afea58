"""repro.telemetry — the measurement spine of the reproduction.

The paper's whole argument is quantitative (Table 1's ray counts, recompute
fractions and per-machine timings); this package is the instrumentation
contract every layer reports through:

* :mod:`~repro.telemetry.core` — hierarchical spans, counters, gauges, and
  point events over a pluggable clock (wall time for real runs, virtual
  time for the cluster simulator), fanned out to pluggable sinks;
* :mod:`~repro.telemetry.sinks` — in-memory buffer and JSONL event log;
* :mod:`~repro.telemetry.schema` — the versioned event schema both the
  real farm and the simulators must emit, plus a validator;
* :mod:`~repro.telemetry.fold` — :class:`RunFold`, the one incremental
  fold of that stream; live status, ``/metrics``, the Table-1 report and
  the utilization analysis are views of its state;
* :mod:`~repro.telemetry.report` — the report dataclasses those views
  return and the Table-1-style text (rays by kind, computed vs copied
  pixels, per-worker utilization);
* :mod:`~repro.telemetry.bench_io` — the ``BENCH_*.json`` emitter the CI
  smoke job and the benchmark harness write results through;
* :mod:`~repro.telemetry.profiling` — opt-in cProfile hooks with merged
  per-worker output.

Everything is stdlib-only; a disabled :class:`Telemetry` (or the shared
:data:`NULL` instance) costs one attribute check per instrumentation site.
"""

from .bench_io import (
    REQUIRED_BENCH_METRICS,
    bench_payload,
    metrics_from_events,
    validate_bench,
    write_bench_json,
)
from .core import NULL, Telemetry, VirtualClock, live_sessions, set_flight_tap
from .fold import RunFold, report_from_events
from .hist import DEFAULT_REL_ERR, LogHistogram
from .profiling import merge_profiles, profile_into, profile_summary
from .report import TelemetryReport, format_report, read_events
from .schema import (
    CORE_EVENTS,
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    SchemaError,
    schema_of_events,
    validate_events,
)
from .sinks import InMemorySink, JsonlSink

__all__ = [
    "CORE_EVENTS",
    "DEFAULT_REL_ERR",
    "EVENT_SCHEMA",
    "InMemorySink",
    "JsonlSink",
    "LogHistogram",
    "NULL",
    "REQUIRED_BENCH_METRICS",
    "RunFold",
    "SCHEMA_VERSION",
    "SchemaError",
    "Telemetry",
    "TelemetryReport",
    "VirtualClock",
    "bench_payload",
    "format_report",
    "live_sessions",
    "merge_profiles",
    "metrics_from_events",
    "profile_into",
    "profile_summary",
    "read_events",
    "report_from_events",
    "schema_of_events",
    "set_flight_tap",
    "validate_bench",
    "validate_events",
    "write_bench_json",
]
