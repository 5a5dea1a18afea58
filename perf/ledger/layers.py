"""Fold one traced request into the per-layer metrics.

Three sources, all outside the program: the wrapper spans
(:mod:`.spans`), the result objects the public API returned, and the run's
own telemetry stream (``RenderRequest(telemetry=True)``) — which is where
every worker-side number comes from, because worker daemons are separate
processes no wrapper reaches.  A metric whose layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

import statistics

from .metrics import PER_LAYER
from .spans import fold

__all__ = ["layer_metrics", "layer_table", "percentile"]


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (no interpolation: every value was measured)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _tasks_with_frames(events: list) -> list:
    """``[(task span, [frame events])]``.  A worker's buffer reaches the
    stream as one batch — its frame events, then the task span that closed
    over them — so the frames between two task spans belong to the later."""
    out, pending = [], []
    for rec in events:
        if rec.get("name") == "frame" and rec.get("type") == "event":
            pending.append(rec)
        elif rec.get("name") == "task" and rec.get("type") == "span":
            out.append((rec, pending))
            pending = []
    return out


def layer_metrics(
    sample,
    *,
    twin_wall: float,
    n_workers: int,
    wall_s: float,
    cpu_s: float,
    serial_wall: float,
    serial_cpu: float,
    ulp_px: int,
) -> dict:
    """Every ``PER_LAYER`` metric for one traced :class:`~.measure.Sample`.

    ``twin_wall`` is the wall of the untraced request issued right before
    it, ``wall_s``/``cpu_s`` the end-to-end values of the same run; the
    serial pair is the same frames through ``engine="animation"``."""
    tracer, events, extra = sample.tracer, sample.events, sample.extra
    own, by_layer = fold(tracer.spans)
    wall, rays = sample.wall, sample.rays
    m = dict.fromkeys((metric.name for metric in PER_LAYER), 0.0)

    # -- what the telemetry stream says the workers did -------------------------------
    tasks = _tasks_with_frames(events)
    busy = sum(task["dur"] for task, _frames in tasks)
    finish: dict[str, float] = {}
    for task, _frames in tasks:
        worker = str(task["attrs"].get("worker", "?"))
        finish[worker] = max(finish.get(worker, 0.0), task["t"] + task["dur"])
    computed_at: dict[int, int] = {}
    held_ms = []
    copied = 0
    for task, frames in tasks:
        prev_t = task["t"]
        for rec in frames:
            attrs = rec["attrs"]
            computed_at[attrs["frame"]] = computed_at.get(attrs["frame"], 0) + attrs["n_computed"]
            copied += attrs["n_copied"]
            if attrs["n_computed"] == 0:
                held_ms.append((rec["t"] - prev_t) * 1e3)
            prev_t = rec["t"]
    map_entries = max(
        (rec["attrs"]["map_entries"] for rec in events if rec.get("name") == "coherence.frame"),
        default=0,
    )

    m["render.trace_self_s"] = own["render.trace_pixels"]
    m["render.intersect_s"] = own["render.nearest"] + own["render.shadow_attenuation"]
    m["render.rays_per_s"] = _ratio(rays["total"], busy or wall)
    for kind in ("camera", "reflected", "refracted", "shadow"):
        m[f"render.rays_{kind}"] = rays[kind]
    m["render.secondary_frac"] = _ratio(rays["total"] - rays["camera"], rays["total"])

    m["accel.dda_mark_s"] = own["accel.traverse"]
    m["accel.marks"] = tracer.counts["accel.marks"]
    m["accel.marks_per_ray"] = _ratio(m["accel.marks"], rays["total"])

    m["coherence.map_update_s"] = (
        own["coherence.add_marks"] + own["coherence.remove_pixels"]
        + own["coherence.replace_pixel_marks"]
    )
    m["coherence.lookup_s"] = own["coherence.changed_voxels"] + own["coherence.pixels_for_voxels"]
    m["coherence.self_s"] = own["coherence.render_next"]
    m["coherence.computed_px"] = sum(computed_at.values())
    m["coherence.copied_px"] = copied
    m["coherence.useful_frac"] = _ratio(
        sum(sample.changed_px), sum(n for f, n in computed_at.items() if f > 0)
    )
    m["coherence.fixed_ms_per_frame"] = statistics.median(held_ms) if held_ms else 0.0
    m["coherence.map_entries"] = map_entries
    m["coherence.map_mb"] = map_entries * 8 / 1e6

    policy = tracer.objects.get("policy")
    m["sched.assignments"] = extra.get("assignments", 0)
    if policy is not None:
        m["sched.steals"] = policy.n_steals
        m["sched.fresh_frames"] = sum(1 for a in policy.log if a.fresh)
    m["sched.decide_s"] = sum(v for k, v in own.items() if k.startswith("sched."))

    if tasks:
        m["runtime.spawn_s"] = min(task["t"] for task, _f in tasks) - sample.t0
    m["runtime.worker_busy_s"] = busy
    if tasks:
        m["runtime.worker_idle_frac"] = max(0.0, 1.0 - _ratio(busy, n_workers * wall))
    m["runtime.tail_s"] = max(finish.values()) - min(finish.values()) if finish else 0.0
    m["runtime.parallel_eff"] = _ratio(serial_wall, n_workers * wall_s)
    m["runtime.work_inflation"] = _ratio(cpu_s, serial_cpu)
    m["runtime.retries"] = extra.get("retries", 0)
    m["runtime.self_s"] = by_layer["runtime"]

    m["buffers.bytes_copied"] = extra["bytes_copied"]
    m["buffers.pool_hit_frac"] = _ratio(extra["pool"]["n_hits"], extra["pool"]["n_acquired"])
    m["buffers.shm_bytes"] = tracer.counts["buffers.shm_bytes"]

    net = tracer.objects.get("net")
    if net is not None:
        m["net.bytes_rx"] = net.bytes_received
        m["net.bytes_tx"] = net.bytes_sent
        m["net.msgs_rx"] = net.messages_received
        m["net.max_msg_bytes"] = max(net.max_msg_bytes.values(), default=0)
        m["net.bytes_per_frame"] = _ratio(net.bytes_received, sample.n_frames)
        m["dfb.tiles"] = net.n_tiles
        m["dfb.tile_bytes"] = net.tile_bytes
        if net.t_first_tile is not None:  # NetStats counts it from serve()
            m["dfb.first_tile_s"] = tracer.start_of("net.serve") - sample.t0 + net.t_first_tile
    m["net.decode_s"] = own["net.decode"] + own["net.assembler_feed"] + own["net.assembler_iter"]
    m["net.encode_s"] = own["net.encode_parts"] + own["net.send_frame"]
    m["net.loop_self_s"] = own["net.serve"]
    listens = [rec["t"] for rec in events if rec.get("name") == "net.listen"]
    joins = [rec["t"] for rec in events if rec.get("name") == "net.worker.join"]
    if listens and joins:
        m["net.join_s"] = max(joins) - listens[0]
    rtts = [rec["attrs"]["rtt"] for rec in events if rec.get("name") == "net.pong"]
    m["net.rtt_p50_ms"] = statistics.median(rtts) * 1e3 if rtts else 0.0

    m["dfb.composite_s"] = by_layer["dfb"]
    m["dfb.us_per_tile"] = _ratio(m["dfb.composite_s"] * 1e6, m["dfb.tiles"])

    shard_stats = extra.get("shard_stats")
    if shard_stats:
        m["shard.rays_routed"] = sum(sum(s["rays_recv"]) for s in shard_stats)
        m["shard.fanout"] = _ratio(m["shard.rays_routed"], rays["total"])
        m["shard.ray_bytes"] = sum(s["total_ray_bytes"] for s in shard_stats)
        m["shard.bytes_per_ray"] = _ratio(m["shard.ray_bytes"], rays["total"])
        m["shard.requests"] = sum(sum(s["n_requests"]) for s in shard_stats)
    m["shard.session_self_s"] = own["shard.pump"] + own["shard.on_reply"]
    m["shard.partition_s"] = own["shard.partition_scene"]

    m["telemetry.events"] = len(events)
    m["telemetry.self_s"] = by_layer["telemetry"]
    m["telemetry.trace_overhead_frac"] = _ratio(wall, twin_wall) - 1.0
    m["api.materialize_s"] = own["api.materialize"]
    m["api.residual_frac"] = _ratio(own["api.request"], wall)
    m["api.ulp_px"] = ulp_px
    m["api.frame_p50_ms"] = percentile(sample.gaps_ms, 50)
    m["api.frame_p90_ms"] = percentile(sample.gaps_ms, 90)
    return {k: float(v) for k, v in m.items()}


def layer_table(sample) -> tuple:
    """Harness-side self seconds of one traced request: by layer — plus the
    residual (request time no wrapped layer covers) and the wall the rows
    sum to — and by span name."""
    own, by_layer = fold(sample.tracer.spans)
    table = {layer: secs for layer, secs in by_layer.items() if layer != "api"}
    table["api"] = own["api.materialize"]
    table["residual"] = own["api.request"]
    table["wall"] = sample.wall
    return table, dict(own)
