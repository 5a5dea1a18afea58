"""Every metric the ledger prints: name, unit, direction, what it should move.

``END_TO_END`` are the metrics a user of the system sees (of one run: the
three request timings are those of its fastest timed request, ``setup_s`` the
median of its set-ups); the six marked ``gated`` are defined (and never zero) on every workload and are the
``end_to_end`` list of ``BENCHMARK.json``.  The other three are printed by
the ledger where they are defined (see perf/README.md for why they cannot
be driver-gated).  ``PER_LAYER`` are the ``per_layer`` list of
``BENCHMARK.json``; ``moves`` records, before any optimisation is tried,
which end-to-end metric on which workload each should move — the
``BENCHMARK.json`` schema has no field for it, so it lives here and in the
README glossary.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "GATED", "EXACT"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    moves: str = ""
    gated: bool = False


END_TO_END = [
    Metric("wall_s", "s", "lower",
           "request issued -> all frames materialized in the caller; includes worker spawn",
           gated=True),
    Metric("cpu_s", "s", "lower",
           "user+sys of the harness process and its reaped workers over one request",
           gated=True),
    Metric("first_frame_s", "s", "lower",
           "request -> first on_frame delivery (= wall_s where the engine has no callback)",
           gated=True),
    Metric("frame_p50_ms", "ms", "lower",
           "median gap between consecutive on_frame deliveries; workloads that stream only"),
    Metric("frame_p90_ms", "ms", "lower",
           "p90 gap between consecutive on_frame deliveries; workloads that stream only"),
    Metric("peak_rss_mb", "MB", "lower",
           "max of the harness process's and its largest child's ru_maxrss after set-up and "
           "the first timed request", gated=True),
    Metric("rays_total", "count", "lower",
           "RayStats.total: the paper's hardware-independent measure of work", gated=True),
    Metric("frames_failed_frac", "fraction", "lower",
           "frames missing, non-finite or not matching the reference / frames attempted"),
    Metric("setup_s", "s", "lower",
           "process start -> ready for the first timed request: import, scene build, "
           "one 4-frame 64x48 warm-up through the same engine and transport", gated=True),
]

GATED = [m for m in END_TO_END if m.gated]
#: metrics that must repeat exactly between two runs of the same code and seed
EXACT = ("rays_total", "frames_failed_frac")


_SERIAL = "wall_s, cpu_s on orbit_serial and newton_serial; nothing on hold_tcp"
_COH = "wall_s on newton_serial, hold_tcp and (x12 blocks) newton_blocks_proc"
_FARM = "wall_s, first_frame_s on newton_blocks_proc and newton_seq_tcp"
_NET = "wall_s, cpu_s on hold_tcp first, newton_seq_tcp second"
_DFB = "wall_s, cpu_s on hold_tcp; first_frame_s, frame_p90_ms on newton_seq_tcp"
_SHARD = "wall_s, cpu_s on newton_shard_tcp only"

PER_LAYER = [
    # render: the wavefront tracer and the scene intersector
    Metric("render.trace_self_s", "s", "lower", "RayTracer.trace_pixels self time", _SERIAL),
    Metric("render.intersect_s", "s", "lower",
       "SceneIntersector.nearest + shadow_attenuation self time", _SERIAL),
    Metric("render.rays_per_s", "1/s", "higher",
       "rays_total / worker-busy seconds (task spans; wall where the engine emits none)",
       _SERIAL),
    Metric("render.rays_camera", "count", "lower", "camera rays", "rays_total everywhere"),
    Metric("render.rays_reflected", "count", "lower", "reflected rays", "rays_total everywhere"),
    Metric("render.rays_refracted", "count", "lower", "refracted rays", "rays_total everywhere"),
    Metric("render.rays_shadow", "count", "lower", "shadow rays", "rays_total everywhere"),
    Metric("render.secondary_frac", "fraction", "lower", "non-camera rays / all rays",
       "rays_total everywhere"),
    # accel: uniform grid + 3-D DDA
    Metric("accel.dda_mark_s", "s", "lower", "time in accel.traverse called from the tracer",
       "wall_s on both serial workloads"),
    Metric("accel.marks", "count", "lower", "(voxel, pixel) visits the DDA returned",
       "coherence.map_update_s, then wall_s on the serial workloads"),
    Metric("accel.marks_per_ray", "count", "lower", "accel.marks / rays_total",
       "wall_s on the serial workloads"),
    # coherence: change detection, voxel-pixel map, CoherentRenderer
    Metric("coherence.map_update_s", "s", "lower",
       "VoxelPixelMap.add_marks/remove_pixels/replace_pixel_marks self time", _COH),
    Metric("coherence.lookup_s", "s", "lower", "changed_voxels + pixels_for_voxels self time",
       _COH),
    Metric("coherence.self_s", "s", "lower", "CoherentRenderer.render_next self time", _COH),
    Metric("coherence.computed_px", "count", "lower", "pixels re-traced (frame events)",
       "rays_total wherever coherence runs"),
    Metric("coherence.copied_px", "count", "higher", "pixels copied forward (frame events)",
       "rays_total wherever coherence runs"),
    Metric("coherence.useful_frac", "fraction", "higher",
       "pixels whose colour changed / pixels recomputed, frames > 0",
       "rays_total on the Newton workloads"),
    Metric("coherence.fixed_ms_per_frame", "ms", "lower",
       "per-frame cost of a frame in which nothing changes",
       "wall_s on hold_tcp and newton_blocks_proc"),
    Metric("coherence.map_entries", "count", "lower",
       "peak voxel-pixel map entries of one renderer", "peak_rss_mb"),
    Metric("coherence.map_mb", "MB", "lower", "coherence.map_entries * 8 bytes", "peak_rss_mb"),
    # sched: the policies
    Metric("sched.assignments", "count", "lower", "dispatches in the policy log",
       "wall_s on the three farm workloads"),
    Metric("sched.steals", "count", "lower", "tail steals; must stay 0 on hold_tcp",
       "rays_total, wall_s on newton_seq_tcp"),
    Metric("sched.fresh_frames", "count", "lower", "assignments that start a chain from scratch",
       "rays_total on the farm workloads"),
    Metric("sched.decide_s", "s", "lower",
       "time inside next_assignment/on_result/on_partial_result/on_worker_lost",
       "wall_s on the farm workloads"),
    # runtime: LocalRenderFarm, supervisor, process transport
    Metric("runtime.spawn_s", "s", "lower", "request -> first worker task start", _FARM),
    Metric("runtime.worker_busy_s", "s", "lower", "sum of worker task-span durations",
       "cpu_s on the farm workloads"),
    Metric("runtime.worker_idle_frac", "fraction", "lower", "1 - busy / (workers * wall)", _FARM),
    Metric("runtime.tail_s", "s", "lower", "last - first worker finish", _FARM),
    Metric("runtime.parallel_eff", "fraction", "higher",
       "serial wall of the same frames / (workers * wall)", _FARM),
    Metric("runtime.work_inflation", "ratio", "lower", "cpu_s / serial cpu of the same frames",
       "cpu_s on newton_blocks_proc"),
    Metric("runtime.retries", "count", "lower", "task retries", "wall_s on the farm workloads"),
    Metric("runtime.self_s", "s", "lower", "LocalRenderFarm + supervisor self time (harness side)",
       "wall_s on newton_blocks_proc"),
    # buffers: pool + shared memory
    Metric("buffers.bytes_copied", "bytes", "lower", "copystats total in the harness process",
       "cpu_s, peak_rss_mb on newton_blocks_proc and hold_tcp"),
    Metric("buffers.pool_hit_frac", "fraction", "higher", "BufferPool hits / acquires",
       "peak_rss_mb on the tcp workloads"),
    Metric("buffers.shm_bytes", "bytes", "lower", "bytes handed back as shared-memory FrameRefs",
       "peak_rss_mb on newton_blocks_proc"),
    # net: codec, master loop, worker daemons
    Metric("net.bytes_rx", "bytes", "lower", "NetStats.bytes_received", _NET),
    Metric("net.bytes_tx", "bytes", "lower", "NetStats.bytes_sent", _NET),
    Metric("net.msgs_rx", "count", "lower", "NetStats.messages_received", _NET),
    Metric("net.decode_s", "s", "lower",
       "master-side protocol.decode + FrameAssembler.feed/iterate self time", _NET),
    Metric("net.encode_s", "s", "lower", "master-side encode_parts + send_frame self time", _NET),
    Metric("net.loop_self_s", "s", "lower",
       "MasterServer.serve self time (select wait included: the master's idle time)", _NET),
    Metric("net.join_s", "s", "lower", "listen -> last worker joined",
       "first_frame_s on the tcp workloads"),
    Metric("net.rtt_p50_ms", "ms", "lower", "median PING/PONG round trip", _NET),
    Metric("net.max_msg_bytes", "bytes", "lower", "largest received message", "peak_rss_mb"),
    Metric("net.bytes_per_frame", "bytes", "lower", "net.bytes_rx / frames", _NET),
    # dfb: tile compositor
    Metric("dfb.tiles", "count", "lower", "tiles composited", _DFB),
    Metric("dfb.tile_bytes", "bytes", "lower", "wire bytes of TILE messages", _DFB),
    Metric("dfb.composite_s", "s", "lower",
       "FrameAssembler.add_tile/add_segment/frame_image/take_frames self time", _DFB),
    Metric("dfb.us_per_tile", "us", "lower", "dfb.composite_s / dfb.tiles", _DFB),
    Metric("dfb.first_tile_s", "s", "lower", "request -> first tile composited",
       "first_frame_s on the tcp workloads"),
    # shard: object-space division
    Metric("shard.rays_routed", "count", "lower", "rays served by shard owners", _SHARD),
    Metric("shard.fanout", "ratio", "lower", "shard.rays_routed / rays_total", _SHARD),
    Metric("shard.ray_bytes", "bytes", "lower", "request + reply payload bytes", _SHARD),
    Metric("shard.bytes_per_ray", "bytes", "lower", "shard.ray_bytes / rays_total", _SHARD),
    Metric("shard.requests", "count", "lower", "RAYS/SHADE requests", _SHARD),
    Metric("shard.session_self_s", "s", "lower",
       "ShardSession.pump/on_reply self time (the master-side wavefront)", _SHARD),
    Metric("shard.partition_s", "s", "lower", "partition_scene self time", _SHARD),
    # telemetry / api
    Metric("telemetry.events", "count", "lower", "records in the run's event stream",
       "telemetry.trace_overhead_frac"),
    Metric("telemetry.self_s", "s", "lower", "Telemetry.emit/absorb self time (traced run only)",
       "telemetry.trace_overhead_frac"),
    Metric("telemetry.trace_overhead_frac", "fraction", "lower",
       "traced wall / wall of the untraced request right before it - 1, median over the pairs",
       "nothing end-to-end: tracing is off there"),
    Metric("api.materialize_s", "s", "lower", "np.asarray(result.frames)", "wall_s everywhere"),
    Metric("api.residual_frac", "fraction", "lower",
       "(wall - sum of layer self times) / wall: time no wrapped layer accounts for",
       "nothing: it bounds what the table can explain"),
    Metric("api.ulp_px", "count", "lower", "pixels within 1e-12 of the reference but not equal",
       "nothing: a correctness watch"),
    Metric("api.frame_p50_ms", "ms", "lower", "median gap between on_frame deliveries",
       "frame_p50_ms on the streaming workloads"),
    Metric("api.frame_p90_ms", "ms", "lower", "p90 gap between on_frame deliveries",
       "frame_p90_ms on the streaming workloads"),
]
