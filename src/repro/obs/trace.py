"""Trace identity and context propagation.

A *run* is one render driven by one master; everything it emits — master
bookkeeping, per-dispatch flight spans, worker-side task/frame spans that
crossed a process or socket boundary — is stamped with the same
``run_id`` and forms one connected trace:

.. code-block:: text

    run (root span, master)
    └── obs.flight A<seq>        one per dispatched assignment (master)
        └── task s<seq>a<n>:1    worker-side root (remote process)
            ├── frame ...        worker-side detail events
            └── coherence.frame ...

The pieces that make the merge sound:

* **Span namespaces.**  Every worker session allocates ids under a prefix
  derived from the assignment's dispatch sequence number (unique per
  dispatch — a requeued assignment gets a fresh ``seq``) and the local
  attempt counter, so ids from any number of worker processes can never
  collide with each other or with the master's bare integers.
* **Flight ids are derivable, not negotiated.**  The master names the
  flight span for assignment ``seq`` as ``"A<seq>"`` *before* dispatch,
  so the id can ride to the worker inside the task envelope and the span
  itself is emitted later, when the outcome is known.
* **The envelope slot doubles as the on/off switch.**  The context
  travels in the task-args telemetry slot as a plain dict; a falsy slot
  means telemetry is off for that task.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass

from ..telemetry import NULL as NULL_TELEMETRY
from ..telemetry import InMemorySink, Telemetry

__all__ = [
    "FLIGHT_PREFIX",
    "TraceContext",
    "find_orphan_spans",
    "flight_span_id",
    "new_run_id",
    "worker_session",
]

#: Span-id prefix for master-side flight spans (``"A12"`` = assignment
#: with dispatch seq 12).  Workers parent their task span under this id.
FLIGHT_PREFIX = "A"


def new_run_id() -> str:
    """A fresh run/trace id (short uuid4 hex — unique, grep-friendly)."""
    return uuid.uuid4().hex[:12]


def flight_span_id(seq: int) -> str:
    """The flight-span id for dispatch sequence number ``seq``.

    Derivable on both sides of the wire: the master stamps it into the
    trace context at dispatch and emits the span under the same id when
    the assignment completes or is lost.
    """
    return f"{FLIGHT_PREFIX}{int(seq)}"


@dataclass(frozen=True)
class TraceContext:
    """The span context a task envelope carries across a process/socket
    boundary: which run this is, which master-side span to parent under,
    the namespace seed worker-local span ids are minted from, and the
    scheduling-lane name the remote spans should report as ``worker`` —
    so master-side flight spans and worker-side task spans agree on lane
    identity in the merged stream (a daemon's pid/thread id means
    nothing to the analysis; its lane does)."""

    run: str = ""
    parent: object = None  # master-side span id (int or str)
    seed: str = ""
    worker: str = ""  # scheduling lane ("lane0", "w1")

    def to_arg(self) -> dict:
        """Encode for the task-args telemetry slot (wire-safe plain dict)."""
        return {
            "run": self.run,
            "parent": self.parent,
            "seed": self.seed,
            "worker": self.worker,
        }

    @classmethod
    def from_arg(cls, arg) -> "TraceContext | None":
        """Decode the telemetry slot: dict -> context, anything else ->
        None (telemetry off)."""
        if not isinstance(arg, dict):
            return None
        return cls(
            run=str(arg.get("run", "")),
            parent=arg.get("parent"),
            seed=str(arg.get("seed", "")),
            worker=str(arg.get("worker", "")),
        )


def worker_session(ctx_arg, attempt: int = 0):
    """Build the per-task worker :class:`Telemetry` from the envelope slot.

    Returns ``(telemetry, sink)``; ``(NULL, None)`` when telemetry is off.
    The span namespace combines the context's seed (``s<seq>``, unique per
    dispatch) with ``attempt``, the local retry counter — the supervised
    pool re-runs a failed task with identical args, so the namespace must
    include it to keep retried span ids distinct.
    """
    ctx = TraceContext.from_arg(ctx_arg)
    if ctx is None:
        return NULL_TELEMETRY, None
    sink = InMemorySink()
    return (
        Telemetry(
            sinks=(sink,), run_id=ctx.run, span_ns=f"{ctx.seed}a{int(attempt)}:",
            root_parent=ctx.parent,
        ),
        sink,
    )


def find_orphan_spans(events) -> list[dict]:
    """Spans whose ``parent`` id resolves to no span in the stream.

    The v4 acceptance property: a merged master+worker event stream has
    zero orphans — every worker-side span hangs off a flight span that
    actually landed, every flight hangs off the run root.  Returns the
    offending records (empty list = connected trace).
    """
    spans = [rec for rec in events if rec.get("type") == "span"]
    known = {rec.get("span") for rec in spans}
    return [
        rec
        for rec in spans
        if rec.get("parent") is not None and rec.get("parent") not in known
    ]
