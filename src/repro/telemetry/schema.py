"""The versioned telemetry event schema.

The acceptance contract of the telemetry spine is that a *real* farm run
and a *simulated* strategy replay of the same animation emit logs of the
same shape: every named span/event carries exactly the attribute keys
pinned here, so the report renderer (and any downstream tooling) can
consume either log without knowing which system produced it.

``validate_events`` is strict on purpose — an attr added or dropped at one
emission site without updating this table is a schema drift, and the CI
smoke job fails on it rather than letting the logs silently diverge.
"""

from __future__ import annotations

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_SCHEMA",
    "CORE_EVENTS",
    "SchemaError",
    "validate_events",
    "schema_of_events",
]

#: Bump when any EVENT_SCHEMA entry changes shape.
#: v2: ``recovery`` gained ``worker`` — the simulator always knew which
#: machine it declared dead but didn't say, and the farm said nothing; the
#: two systems now describe a worker-loss recovery with the same fields
#: (``worker`` is ``"?"`` where the transport can't attribute the loss).
#: v3: the ``net.*`` family — the TCP transport narrates its connection
#: lifecycle (listen/connect/join), per-message wire accounting
#: (assign/result with byte counts), heartbeat round-trips, and losses,
#: so a networked run's log is as auditable as a simulated one.
#: v4: the ``obs`` trace model — a ``run`` root span owned by whoever
#: drives the run, one ``obs.flight`` span per dispatched assignment
#: (master-side, dispatch -> accept/loss) that worker-side ``task`` spans
#: parent under, and ``obs.clock`` per-worker skew estimates so remote
#: timestamps can be folded onto the master's time axis.  With v4 a
#: merged master+worker event stream forms one connected trace: every
#: span's parent resolves (:func:`repro.obs.find_orphan_spans`).
#: v5: the ``job.*`` family — the persistent render service narrates its
#: job lifecycle (submit, state transitions through the
#: queued/running/done/dead-letter/rejected machine, per-attempt
#: outcomes), mirroring on the service level what ``task.attempt`` /
#: ``recovery`` record on the task level.
#: v6: the ``dfb.*`` family — the distributed framebuffer narrates tile
#: arrival (``dfb.tile`` per streamed wire tile, with byte counts so
#: time-to-first-tile and bytes-per-message are first-class metrics) and
#: partial-retry salvage (``dfb.salvage`` when a lost worker's already
#: composited frames are kept and only the remainder is re-dispatched).
#: v7: the ``shard.*`` family — object-space sharded runs narrate, per
#: (shard, frame), how many rays the owner traced for itself versus had
#: forwarded to it (``shard.rays``) and the ray-exchange wire traffic
#: (``shard.xfer`` with rays routed + request/reply payload bytes), so
#: ``repro top`` and the bench can show who owns what and what the ray
#: trade costs on the wire.
#: v8: the observability plane — ``net.worker.lost`` gains ``blackbox``
#: (path of the victim's flight-recorder dump, ``""`` when none landed),
#: ``obs.blackbox`` records a dump arriving at the master (written locally
#: or shipped over ``MSG_BLACKBOX`` by a reconnecting worker), and the
#: ``health.*`` pair narrates the online EWMA straggler detector
#: (``health.straggler`` when a worker's latency EWMA exceeds the
#: farm-wide EWMA by the detection ratio, ``health.recovered`` when it
#: drops back under the hysteresis ratio).
SCHEMA_VERSION = 8

#: Ray-kind attr keys shared by ``frame`` and ``run.end``.
RAY_KEYS = ("rays_camera", "rays_reflected", "rays_refracted", "rays_shadow", "rays_total")

#: name -> exact attribute key set.  Every span/event with one of these
#: names must carry exactly these attrs (values are unconstrained).
EVENT_SCHEMA: dict[str, frozenset[str]] = {
    # -- emitted by every engine (the farm and the simulators) -------------
    "run.start": frozenset(
        {"engine", "workload", "n_frames", "width", "height", "n_workers", "mode"}
    ),
    "task": frozenset(
        {"worker", "mode", "frame0", "frame1", "region", "rays", "n_computed", "attempt"}
    ),
    "frame": frozenset({"frame", "n_computed", "n_copied", *RAY_KEYS}),
    "worker": frozenset({"worker", "busy", "n_tasks", "utilization"}),
    "run.end": frozenset(
        {"wall_time", "computed_pixels", "copied_pixels", "n_tasks", "n_workers", *RAY_KEYS}
    ),
    # -- real-renderer detail events ---------------------------------------
    "coherence.frame": frozenset(
        {"frame", "n_changed_voxels", "map_entries", "n_intersection_tests"}
    ),
    "shadow.frame": frozenset({"frame", "n_shadow_reusable", "shadow_rays_saved"}),
    # -- supervision / robustness ------------------------------------------
    "task.attempt": frozenset({"task", "attempt", "outcome", "duration", "started"}),
    "recovery": frozenset({"kind", "task", "attempt", "duration", "worker"}),
    "checkpoint": frozenset({"task", "action"}),
    "profile": frozenset({"path"}),
    # -- network transport (repro.net) -------------------------------------
    "net.listen": frozenset({"host", "port"}),
    "net.connect": frozenset({"worker", "host", "port", "attempt"}),
    "net.worker.join": frozenset({"worker", "host", "cores", "score"}),
    "net.assign": frozenset({"worker", "seq", "frame0", "frame1", "region", "nbytes"}),
    "net.result": frozenset({"worker", "seq", "nbytes", "compressed", "duration"}),
    "net.pong": frozenset({"worker", "rtt"}),
    "net.worker.lost": frozenset({"worker", "reason", "seq", "blackbox"}),
    # -- distributed framebuffer (repro.dfb) --------------------------------
    "dfb.tile": frozenset({"worker", "seq", "frame", "x0", "y0", "x1", "y1", "nbytes"}),
    "dfb.salvage": frozenset({"worker", "seq", "frame0", "frame_done", "frame1"}),
    # -- object-space sharding (repro.shard) --------------------------------
    "shard.rays": frozenset({"worker", "shard", "frame", "n_local", "n_forwarded"}),
    "shard.xfer": frozenset({"worker", "shard", "frame", "n_rays", "nbytes"}),
    # -- distributed tracing (repro.obs) -----------------------------------
    "run": frozenset({"engine"}),
    "obs.flight": frozenset({"worker", "seq", "attempt", "outcome"}),
    "obs.clock": frozenset({"worker", "offset", "rtt"}),
    # -- observability plane (repro.obs.flight / repro.obs.metrics) ---------
    "obs.blackbox": frozenset({"role", "pid", "path", "records"}),
    "health.straggler": frozenset({"worker", "ewma", "farm", "ratio"}),
    "health.recovered": frozenset({"worker", "ewma", "farm", "ratio"}),
    # -- persistent render service (repro.service) --------------------------
    "job.submit": frozenset({"job", "workload", "priority", "owner", "n_frames"}),
    "job.state": frozenset({"job", "state", "detail"}),
    "job.attempt": frozenset({"job", "attempt", "outcome", "duration", "error"}),
}

#: The run-shape every engine must cover for two logs to be comparable.
CORE_EVENTS = ("run.start", "task", "frame", "worker", "run.end")


class SchemaError(ValueError):
    """An event log violates the pinned telemetry schema."""


def _problems(events) -> list[str]:
    problems: list[str] = []
    for i, rec in enumerate(events):
        if not isinstance(rec, dict):
            problems.append(f"record {i}: not a dict")
            continue
        rtype = rec.get("type")
        name = rec.get("name")
        if rtype not in ("span", "event", "counter", "gauge", "histogram"):
            problems.append(f"record {i}: unknown type {rtype!r}")
            continue
        if not isinstance(name, str) or not name:
            problems.append(f"record {i}: missing name")
            continue
        if "t" not in rec:
            problems.append(f"record {i} ({name}): missing timestamp 't'")
        if rtype == "span" and "dur" not in rec:
            problems.append(f"record {i} ({name}): span without 'dur'")
        if rtype in ("counter", "gauge", "histogram"):
            if "value" not in rec:
                problems.append(f"record {i} ({name}): {rtype} without 'value'")
            continue  # metric names are free-form
        expected = EVENT_SCHEMA.get(name)
        if expected is None:
            problems.append(f"record {i}: unregistered event name {name!r}")
            continue
        got = frozenset((rec.get("attrs") or {}).keys())
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"extra {extra}")
            problems.append(f"record {i} ({name}): attr drift — {', '.join(detail)}")
    return problems


def validate_events(events) -> None:
    """Raise :class:`SchemaError` if any record drifts from the schema."""
    problems = _problems(events)
    if problems:
        shown = "\n  ".join(problems[:20])
        more = f"\n  ... and {len(problems) - 20} more" if len(problems) > 20 else ""
        raise SchemaError(f"telemetry schema violations:\n  {shown}{more}")


def schema_of_events(events) -> dict[str, tuple[str, ...]]:
    """Observed name -> sorted attr keys for span/event records.

    Two logs have "the same schema" when these maps agree on every shared
    name and both cover :data:`CORE_EVENTS` — the property the farm/simulator
    equivalence test asserts.
    """
    seen: dict[str, tuple[str, ...]] = {}
    for rec in events:
        if rec.get("type") in ("span", "event"):
            name = rec.get("name", "")
            keys = tuple(sorted((rec.get("attrs") or {}).keys()))
            prev = seen.setdefault(name, keys)
            if prev != keys:
                raise SchemaError(
                    f"event {name!r} emitted with inconsistent attrs: {prev} vs {keys}"
                )
    return seen
