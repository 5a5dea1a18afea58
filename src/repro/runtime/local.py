"""Real parallel rendering on the local machine.

The cluster simulator (:mod:`repro.cluster`) answers "what would this have
cost on the 1998 testbed"; this module actually *runs* the master/worker
decomposition with live processes, demonstrating the protocol end-to-end
and providing the ground truth that partitioned rendering assembles the
same images as a single renderer.

There is one farm, the paper's master loop: a scheduling policy
(:mod:`repro.sched`) hands *units* — frames ``[f0, f1)`` of one region —
to whichever worker lane is free, a transport executes them
(:func:`_render_segment_task` on the supervised pool, or on socket
daemons), and one compositor — a :class:`~repro.dfb.FrameAssembler` —
takes every pixel and judges it: wire tiles as they arrive, pool units
and checkpoint loads in the farm's one validator.  A unit is accepted,
on either transport and from the spool alike, when the range it was
assigned (box and frames, from the assignment, never from the worker)
is covered in the compositor and its result holds one counts row per
assigned frame.
``schedule`` only chooses the unit list:

* ``"static"`` or ``"demand"`` (two spellings of one schedule) — the
  fixed list ``mode`` implies, handed to whichever lane is free:
  ``frame`` (the paper's frame division: one unit per block of
  :func:`~repro.parallel.default_block_layout` over its whole shot) or
  ``sequence`` (sequence division: one whole-frame unit per contiguous
  frame range);
* ``"adaptive"`` — sequence chains cut into segments at run time, with
  tail-stealing and a worker-side renderer-continuation cache so a
  chain's coherence survives across its segment tasks.

Transports: ``process`` runs the units on this host through the supervised
pool (executors ``process`` — fork-based, the real thing — ``thread``, or
the deterministic in-process ``serial``), whose results carry the
unit's pixels home (in shared memory on the process executor); ``tcp``
serves them to worker daemons forked from the master, over loopback
sockets, which stream each finished frame to the master as tiles.

Dispatch is **supervised**, the same way on both transports: per-unit
deadlines, crashed or hung workers detected, corrupted outputs (pixels
of the wrong shape or not finite) refused by the compositor before any
of them is written, and every such loss handed to the policy, which
requeues the unit for another lane
(:class:`~repro.sched.master.MasterCore` keeps the books, capping each
unit's attempts); on the pool a unit that keeps failing degrades to
in-process serial execution instead of aborting the render.

Passing ``run_dir`` to :meth:`LocalRenderFarm.render` spools each
completed unit of a fixed list (``static`` or ``demand``, either
transport) to disk as it is accepted; a later render with the same
``run_dir`` re-renders only the missing units: the spool is the one
resume record, as the paper's master hands out again the work that never
came back.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..accel import UniformGrid
from ..coherence import CoherentRenderer, grid_for_animation
from ..durable import atomic_write
from ..geometry import RayKind
from ..obs.trace import TraceContext, flight_span_id, new_run_id, worker_session
from ..parallel.partition import PixelRegion, default_block_layout, sequence_ranges
from ..render import RayStats, RayTracer
from ..rmath import AABB
from ..scene import Animation, split_coherent_sequences
from ..buffers import (
    FrameRef,
    SharedFrameStore,
    activate_worker_store,
    release_refs,
    worker_store,
)
from ..telemetry import RunFold, Telemetry
from ..telemetry.core import parse_records
from ..telemetry.profiling import profile_into
from .options import FarmOptions, RecoveryCounts, RecoveryView, TaskAttempt
from .spec import AnimationSpec
from .supervisor import SupervisorOutcome, TaskSupervisor, task_context

__all__ = ["LocalRenderFarm", "FarmResult", "FrameCounts"]

# Per-process cache keyed by spec: workers build each animation (and hold
# one voxel grid per spec + resolution) once, and concurrent farms with
# *different* specs (the thread executor shares this module's globals)
# cannot evict or corrupt each other's entry mid-render.  The animation keeps
# each frame's scene and the grid keys its change sets: once per worker, not per block.
_WORKER_CACHE: dict[tuple, object] = {}
_WORKER_CACHE_LOCK = threading.Lock()
_WORKER_CACHE_MAX = 8


def _spec_key(spec: AnimationSpec) -> tuple:
    return (spec.factory, repr(sorted(spec.kwargs.items())))


def _worker_init(spec: AnimationSpec, shm_token: str | None = None) -> None:
    _get_anim(spec)
    # A token means the master runs a process pool and wants frames in
    # shared memory; thread/serial executors pass None (same process —
    # pickling never happens, so plain arrays are already zero-copy).
    activate_worker_store(shm_token)


def _frames_alloc(shape) -> tuple:
    """One task's output framebuffer: ``(handle, writable array)``.

    With an armed worker store the array is a shared-memory segment the
    renderer fills in place and ``handle`` is the picklable
    :class:`~repro.buffers.FrameRef` that rides home in the result tuple
    — the pixels themselves never cross the fork boundary.  Otherwise
    both are one plain ndarray.
    """
    store = worker_store()
    if store is None:
        frames = np.empty(shape, dtype=np.float64)
        return frames, frames
    return store.create(shape, np.float64)


def _seal_frames(handle) -> None:
    """Drop the worker's own mapping of a shm-backed result (the master
    re-attaches from the FrameRef; keeping ours open just holds pages).
    The caller must have dropped its own view of the frames first, or the
    mapping survives until GC collects the view."""
    if isinstance(handle, FrameRef):
        handle.close_local()


def _cached(key: tuple, build):
    with _WORKER_CACHE_LOCK:
        value = _WORKER_CACHE.get(key)
    if value is not None:
        return value
    value = build()  # built outside the lock; a racing duplicate is benign
    with _WORKER_CACHE_LOCK:
        value = _WORKER_CACHE.setdefault(key, value)
        while len(_WORKER_CACHE) > _WORKER_CACHE_MAX:
            oldest = next(k for k in _WORKER_CACHE if k != key)
            del _WORKER_CACHE[oldest]
    return value


def _get_anim(spec: AnimationSpec):
    return _cached(_spec_key(spec), spec.build)


def _get_grid(spec: AnimationSpec, grid) -> UniformGrid:
    """The run's voxel grid from the task's ``(resolution, lo, hi)``, which
    the master swept from every frame: a worker never sweeps the animation.
    One object per process per (spec, resolution), so an in-process lane
    gets the master's own grid (change sets are memoized per grid object)."""
    res, lo, hi = grid
    return _cached((*_spec_key(spec), int(res)), lambda: UniformGrid(AABB(lo, hi), int(res)))


@dataclass(frozen=True)
class _InlineSpec(AnimationSpec):
    """A live :class:`~repro.scene.Animation` in a recipe's place.

    Only an in-process lane can use one: it does not pickle, and no daemon
    could rebuild it.  Its factory name is a fresh token, so its cache
    entries never alias another animation's."""

    animation: Animation | None = field(default=None, compare=False, repr=False)

    def build(self) -> Animation:
        return self.animation


_INLINE_TOKENS = itertools.count()

#: A unit result's per-frame counts row: rays by :class:`RayKind`, then
#: pixels computed, pixels copied and shadow rays saved (the region's own).
N_KINDS = len(RayKind)
COMPUTED, COPIED, SAVED = N_KINDS, N_KINDS + 1, N_KINDS + 2
ROW = N_KINDS + 3


def _count_row(report) -> list:
    return [*report.stats.counts, report.n_computed, report.n_copied, report.shadow_rays_saved]


def _worker_profile_path(profile_dir) -> str | None:
    if not profile_dir:
        return None
    idx, attempt = task_context()
    return str(Path(profile_dir) / f"task_{idx:04d}_a{attempt}_{os.getpid()}.prof")


def _finish_worker_events(tel: Telemetry, sink) -> str:
    """Flush and serialize a worker task's event buffer for transport (the
    master re-emits it into the run's sinks via ``Telemetry.absorb``)."""
    if sink is None:
        return ""
    tel.close()
    return tel.serialize_events(sink.events)


def _task_events(result) -> list:
    """The worker event buffer a result tuple carries, decoded: ``[]`` when
    the task ran untraced or sent no list of timed records (it is untrusted)."""
    try:
        return parse_records(result[-1]) if result[-1] else []
    except (TypeError, ValueError):
        return []


# Renderer-continuation cache for the adaptive schedule: an adaptive
# chain's segments arrive as separate tasks, and on the thread/serial
# executors (shared memory) the renderer that just finished frame f-1 is
# parked here so the task rendering frame f continues it coherently
# instead of starting fresh.  Keyed by (animation, region, quality) plus
# the frame the renderer is positioned at; pop-on-acquire, so a failed
# attempt leaves no stale entry behind and its retry falls back to a
# fresh full render.  Entries orphaned by steals age out via the cap.
_SEGMENT_CACHE: dict[tuple, CoherentRenderer] = {}
_SEGMENT_CACHE_LOCK = threading.Lock()
_SEGMENT_CACHE_MAX = 16


def _segment_cache_key(spec, box, grid_resolution, shadow, frame) -> tuple:
    return (_spec_key(spec), box, int(grid_resolution), bool(shadow), int(frame))


def _reset_caches_after_fork() -> None:
    # A forked child continues no chain its parent parked, and another thread
    # may have held a lock at fork time.  _WORKER_CACHE is a function of specs.
    global _WORKER_CACHE_LOCK, _SEGMENT_CACHE_LOCK
    _WORKER_CACHE_LOCK = threading.Lock()
    _SEGMENT_CACHE_LOCK = threading.Lock()
    _SEGMENT_CACHE.clear()


os.register_at_fork(after_in_child=_reset_caches_after_fork)


def _render_segment_task(args, emit_tile=None):
    """The farm's one worker task: render frames ``[f0, f1)`` of one region
    (``box=None``: whole frames).

    ``fresh`` marks a chain start (full render of ``f0``); a non-fresh
    segment tries to continue the renderer parked at ``f0`` by the chain's
    previous segment, rendering fresh when the cache misses (different
    process, evicted, or the previous attempt failed).  ``horizon`` is the
    renderer's ``last_frame``: ``f1`` when nothing continues the unit, so
    its last frame records no marks and the renderer is not parked, and
    never past the end of the unit's shot.  ``shadow`` is the renderer's
    ``shadow_coherence``.

    ``grid`` is ``(resolution, lo, hi)``: the voxel grid's bounds come
    with the task (see :func:`_get_grid`).  Each finished frame's box image
    ``(h, w, 3)`` is handed once to ``emit_tile(frame, x0, y0, image,
    changed)`` — a view of the renderer's live framebuffer, consumed before
    the call returns — with ``changed``, the frame's recomputed pixels
    (``FrameReport.computed_pixels``) as an ``(h, w)`` mask of the box;
    every other pixel holds its value of the frame before.  The TCP worker
    passes its tile sink, which streams the image to the master, and the
    result's ``frames`` is ``None``; without a sink the images are written
    into the unit's ``(n, h, w, 3)`` output buffer, which rides home in the
    result.  The result is ``(frames, counts, events)``: ``counts`` holds
    one row per frame (see :data:`ROW`), ``events`` the worker's buffer.
    """
    (spec, box, f0, f1, horizon, fresh, label, grid, shadow, tel_ctx, profile_dir) = args
    anim = _get_anim(spec)
    cam = anim.camera_at(0)
    region = None if box is None else PixelRegion(*box, width=cam.width).pixels
    n_px = int(cam.n_pixels if region is None else region.size)
    # tel_ctx is the dispatch's trace-context dict (run id, parent flight
    # span, namespace seed, lane — see repro.obs.trace), falsy when
    # telemetry is off; the unit's attempt number completes the span
    # namespace.
    _idx, attempt = task_context()
    tel, sink = worker_session(tel_ctx, attempt=attempt)
    renderer = None
    if not fresh:
        with _SEGMENT_CACHE_LOCK:
            renderer = _SEGMENT_CACHE.pop(
                _segment_cache_key(spec, box, grid[0], shadow, f0), None
            )
    with profile_into(_worker_profile_path(profile_dir)):
        with tel.span(
            "task",
            worker=tel_ctx["worker"] if tel_ctx else "",
            mode=label,
            frame0=int(f0),
            frame1=int(f1),
            region=n_px,
            rays=0,
            n_computed=0,
            attempt=attempt,
        ) as sp:
            if renderer is None:
                renderer = CoherentRenderer(
                    anim,
                    region=region,
                    grid=_get_grid(spec, grid),
                    first_frame=f0,
                    last_frame=horizon,
                    telemetry=tel,
                    shadow_coherence=shadow,
                )
            else:
                renderer.telemetry = tel
            n_new = f1 - f0
            x0, y0, x1, y1 = box or (0, 0, cam.width, cam.height)
            out_frames = frames = None
            if emit_tile is None:
                out_frames, frames = _frames_alloc((n_new, y1 - y0, x1 - x0, 3))

                def emit_tile(frame, _x0, _y0, image, _changed):
                    frames[frame - f0] = image

            for f in range(f0, f1):
                computed = renderer.render_next().computed_pixels
                image = renderer.framebuffer.data.reshape(cam.height, cam.width, 3)
                changed = np.zeros((cam.height, cam.width), dtype=bool)
                changed.flat[computed] = True
                emit_tile(f, x0, y0, image[y0:y1, x0:x1], changed[y0:y1, x0:x1])
            counts = np.array([_count_row(r) for r in renderer.reports[-n_new:]], np.int64)
            sp.attrs["rays"] = int(counts[:, :N_KINDS].sum())
            sp.attrs["n_computed"] = int(counts[:, COMPUTED].sum())
    if f1 < horizon:
        with _SEGMENT_CACHE_LOCK:
            key = _segment_cache_key(spec, box, grid[0], shadow, f1)
            _SEGMENT_CACHE[key] = renderer
            while len(_SEGMENT_CACHE) > _SEGMENT_CACHE_MAX:
                del _SEGMENT_CACHE[next(iter(_SEGMENT_CACHE))]
    frames = None  # the writer's reference too: one closure cell
    _seal_frames(out_frames)
    return out_frames, counts, _finish_worker_events(tel, sink)


_MANIFEST_NAME = "manifest.json"
# Format 5 spools one ``(region_index, frame0, frame1, frames, counts,
# events)`` tuple per unit of the fixed unit list, named by the unit's
# index in that list; ``frames`` is the unit's box, ``(n, h, w, 3)``, and
# ``counts`` its ``(n, ROW)`` per-frame rows.  Format 6 dropped the
# manifest's sample count.  A directory whose manifest is an older format's
# for the same render (see :func:`_older_manifest`) is treated as an empty
# spool and re-rendered.
_SPOOL_FORMAT = 6


def _older_manifest(existing, manifest: dict) -> bool:
    """``existing`` is an older format's manifest of the render ``manifest``
    describes.  Formats up to 5 recorded ``samples_per_axis``; only a
    one-sample spool is this render."""
    if not isinstance(existing, dict) or existing.get("format") not in range(_SPOOL_FORMAT):
        return False
    old = {**existing, "format": _SPOOL_FORMAT}
    return old.pop("samples_per_axis", 1) == 1 and old == manifest


def _spool_path(run_dir: Path, idx: int) -> Path:
    return run_dir / f"task_{idx:04d}.npz"


def _save_task_result(path: Path, result: tuple) -> None:
    """Spool one unit's result atomically: once the file exists, the unit
    is done — a render killed mid-write leaves the previous state."""
    arrays = {f"f{i}": np.asarray(v) for i, v in enumerate(result)}
    atomic_write(path, lambda fh: np.savez_compressed(fh, n=len(result), **arrays))


def _load_task_result(path: Path) -> tuple:
    with np.load(path) as z:
        n = int(z["n"])
        out = []
        for i in range(n):
            a = z[f"f{i}"]
            out.append(a.item() if a.ndim == 0 else a)
        return tuple(out)


@dataclass(frozen=True)
class FrameCounts:
    """One frame's accounting: its counts rows summed over the units that
    rendered it (every engine's ``RenderResult.reports`` entry and
    ``FrameEvent.report``)."""

    frame: int
    n_computed: int
    n_copied: int
    rays: tuple[int, ...]  # by RayKind
    shadow_rays_saved: int = 0

    @property
    def stats(self) -> RayStats:
        return RayStats(np.array(self.rays))

    @classmethod
    def of(cls, frame: int, row) -> "FrameCounts":
        return cls(int(frame), int(row[COMPUTED]), int(row[COPIED]),
                   tuple(int(n) for n in row[:N_KINDS]), int(row[SAVED]))


@dataclass
class FarmResult(RecoveryView):
    """Assembled output of a local farm run, plus its robustness story."""

    frames: np.ndarray  # (n_frames, H, W, 3) float64
    stats: RayStats
    n_tasks: int
    mode: str
    recovery: RecoveryCounts = field(default_factory=RecoveryCounts)
    n_from_checkpoint: int = 0
    attempts: list[TaskAttempt] = field(default_factory=list)
    # TCP runs expose the master's wire accounting (NetStats): tile
    # counts, first-tile/first-result latency, per-message-type maxima.
    net: object | None = None
    counts: np.ndarray | None = None  # (n_frames, ROW): the accepted units' rows
    shots: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def reports(self) -> list[FrameCounts]:
        return [FrameCounts.of(f, row) for f, row in enumerate(self.counts)]

    def shot_stats(self) -> list[RayStats]:
        return [RayStats.merge(self.counts[a:b, :N_KINDS]) for a, b in self.shots]


class LocalRenderFarm:
    """Render an animation with real local parallelism.

    ``spec`` is the recipe workers use to rebuild the animation (see
    :class:`AnimationSpec`), or a live :class:`~repro.scene.Animation`
    when every lane runs in this process (``executor="serial"`` or
    ``"thread"`` on the process transport); every keyword is a field of
    :class:`~repro.runtime.options.FarmOptions`, which documents and
    validates them.  The farm keeps the one object (``self.options``)
    and hands it to its transport unopened.

    No unit crosses a shot: the unit lists and the adaptive chains are cut
    at the camera cuts :func:`~repro.scene.split_coherent_sequences` finds,
    so a unit that starts a shot renders it fresh.
    """

    def __init__(self, spec: AnimationSpec | Animation, **options):
        self.options = FarmOptions(**options).resolved()
        in_process = self.options.transport == "process" and self.options.executor != "process"
        if isinstance(spec, Animation):
            if not in_process:
                raise ValueError(
                    "engine='farm' needs a workload name or AnimationSpec "
                    "(workers rebuild the animation from a picklable recipe)"
                )
            spec = _InlineSpec(f"<{type(spec).__name__} {next(_INLINE_TOKENS)}>", animation=spec)
        self.spec = spec
        # In-process lanes render the master's own animation and grid; other
        # workers rebuild theirs, and the master keeps neither past the farm.
        self._in_process = in_process
        self._anim = _get_anim(spec) if in_process else spec.build()
        self._cam = self._anim.camera_at(0)
        self._shots = split_coherent_sequences(self._anim)
        for a, _b in self._shots:
            cam = self._anim.camera_at(a)
            if (cam.width, cam.height) != (self._cam.width, self._cam.height):
                raise ValueError("all shots must share one resolution")
        self._run_span = None  # root span id, allocated by _begin_trace()

    # -- trace identity ----------------------------------------------------------
    def _begin_trace(self) -> float:
        """Stamp the run id, allocate the root ``run`` span, return its t0.

        Every record the run emits — master-side and absorbed worker-side
        alike — carries the run id; worker spans parent, via their
        dispatch's flight span, under the root span allocated here, so the
        merged stream is one connected trace.
        """
        tel = self.options.telemetry
        if tel.enabled and not tel.run_id:
            tel.run_id = new_run_id()
        self._run_span = tel.new_span_id() if tel.enabled else None
        return tel.now()

    def _end_trace(self, t_run0: float) -> None:
        tel = self.options.telemetry
        if tel.enabled:
            tel.emit_span(
                "run", t_run0, tel.now() - t_run0,
                span=self._run_span, parent=None, engine="farm",
            )

    # -- unit list / policy --------------------------------------------------------
    def _cut(self, ranges) -> list[tuple[int, int]]:
        """``ranges`` of frames, each split where a shot ends."""
        return [
            (max(a, s0), min(b, s1))
            for a, b in ranges
            for s0, s1 in self._shots
            if max(a, s0) < min(b, s1)
        ]

    def _unit_list(self):
        """``(units, regions)`` of a fixed-unit schedule: the deterministic
        ``(region_index, frame0, frame1)`` list — a unit's position in it
        names its checkpoint file — and the region table the indices point
        into (``None``: whole frames, region index -1).  ``(None, None)``
        for ``adaptive``, whose units are decided at run time."""
        if self.options.schedule == "adaptive":
            return None, None
        n_frames = self._anim.n_frames
        if self.options.mode == "sequence":
            spans = self._cut(sequence_ranges(n_frames, self.options.n_workers))
            return [(-1, a, b) for a, b in spans], None
        regions = default_block_layout(self._cam.width, self._cam.height)
        return [(ri, a, b) for ri in range(len(regions)) for a, b in self._shots], regions

    def _policy(self, units, regions):
        """The scheduling policy over ``units`` (``None``: adaptive chains)."""
        from ..sched.core import AdaptiveChainPolicy, Chain, DemandDrivenPolicy

        if units is not None:
            return DemandDrivenPolicy(
                units, use_coherence=True, units_per_frame=len(regions) if regions else 1
            )
        # adaptive: whole-frame chains over pre-split ranges, tail-stealing on.
        # A pool process can receive any segment, so continuations there must
        # render fresh; a TCP lane (like a thread/serial worker) is pinned to
        # one daemon, whose continuation cache carries a chain's coherence
        # across segments — so fine 1-frame segments stay cheap.
        n_frames = self._anim.n_frames
        pooled = self.options.transport == "process" and self.options.executor == "process"
        if self.options.segment_frames is not None:
            seg = max(1, int(self.options.segment_frames))
        elif pooled:
            seg = max(1, -(-n_frames // (4 * self.options.n_workers)))
        else:
            seg = 1
        chains = [
            Chain(-1, a, b, fresh=True)
            for a, b in self._cut(sequence_ranges(n_frames, self.options.n_workers))
        ]
        return AdaptiveChainPolicy(
            chains,
            use_coherence=True,
            units_per_frame=1,
            min_steal_frames=max(2, seg + 1),
            segment_frames=seg,
            continuation_fresh=pooled,
        )

    # -- the pixel gate -------------------------------------------------------------
    def _validator(self, assembler):
        """The farm's one acceptance rule, ``validate(args, result)``, for pool
        results, TCP RESULTs and spool loads alike.  ``args`` is the unit's
        task tuple (a spool load passes its record as ``(None, box, f0,
        f1)``): the box and frame range are what the unit was assigned, never
        what its worker echoes.  ``result`` is ``(frames, counts, events)``
        with one counts row per assigned frame.  Pixels a result carries go
        into ``assembler`` through ``add_segment``, which refuses a block of
        the wrong shape or with a value that is not finite and then
        composites none of it; a TCP unit's came ahead as tiles.  The unit
        is accepted iff the assigned range is covered."""

        def validate(args, result) -> bool:
            _spec, box, f0, f1 = args[:4]
            if not isinstance(result, tuple) or len(result) != 3:
                return False
            frames, counts, events = result
            c = np.asarray(counts)
            if not (c.shape == (f1 - f0, ROW) and c.dtype.kind in "iu"
                    and isinstance(events, str)):
                return False
            if frames is not None:
                assembler.add_segment(box, f0, f1, frames)
            return assembler.range_complete(box, f0, f1)

        return validate

    # -- progress callbacks ------------------------------------------------------
    def _compositing(self, assembler, tally):
        """``(fold_unit, report)``: the farm's bookkeeping of accepted units.

        ``report(worker, frame, box, pixels, frame_complete, row=None)`` is
        the one progress adapter: it tells ``on_tile`` / ``on_frame`` about
        one composited rectangle (``None`` when nobody listens).  The TCP
        master calls it for every wire tile, with ``pixels=None`` for a
        held one.  ``fold_unit(worker, box, f0, f1, result)`` adds an
        accepted unit's counts rows to ``tally``; when the unit carried its
        pixels — a pool result, a checkpoint load, composited by the
        validator — it reports each frame the same way, with the frame's
        summed row.  A streamed frame completes from tiles that outrun its
        unit's counts, so its ``FrameEvent.report`` is None."""
        from ..dfb import FrameEvent, TileEvent

        report = None
        if self.options.on_tile is not None or self.options.on_frame is not None:

            def report(worker, frame, box, pixels, frame_complete, row=None):
                if self.options.on_tile is not None:
                    x0, y0, x1, y1 = box
                    if pixels is None:  # a held tile: composited from frame - 1
                        pixels = assembler.segment(box, frame, frame + 1)[0]
                    self.options.on_tile(TileEvent(
                        frame=frame, x0=x0, y0=y0, x1=x1, y1=y1,
                        pixels=pixels, worker=worker, frame_complete=frame_complete,
                    ))
                if frame_complete and self.options.on_frame is not None:
                    counts = None if row is None else FrameCounts.of(frame, row)
                    self.options.on_frame(FrameEvent(frame, assembler.frame_image(frame), counts))

        whole = (0, 0, self._cam.width, self._cam.height)

        def fold_unit(worker, box, f0, f1, result) -> None:
            frames, counts, _events = result
            tally[f0:f1] += np.asarray(counts)
            if frames is None or report is None:  # streamed: reported tile by tile
                return
            frames = np.asarray(frames)
            for f in range(f0, f1):
                done = assembler.range_complete(None, f, f + 1)
                report(worker, f, box or whole, frames[f - f0], done, tally[f])

        return fold_unit, report

    # -- checkpoint spool ----------------------------------------------------------
    def _manifest(self, n_tasks: int) -> dict:
        return {
            "format": _SPOOL_FORMAT,
            "factory": self.spec.factory,
            "kwargs": repr(sorted(self.spec.kwargs.items())),
            "mode": self.options.mode,
            "n_frames": int(self._anim.n_frames),
            "width": int(self._cam.width),
            "height": int(self._cam.height),
            "grid_resolution": int(self.options.grid_resolution),
            "n_tasks": int(n_tasks),
        }

    def _load_spool(self, run_path: Path, units: list, load) -> set:
        """Open (or create) a checkpoint directory; returns the indices of
        the finished units it holds.  ``load(index, result)`` is offered
        each spooled unit whose record matches its place in ``units``, in
        order, and says whether it was accepted.

        A manifest for a different render refuses to mix checkpoints; one
        that differs only by an older ``format`` number is an empty spool,
        cleared and overwritten.  Unreadable, invalid or mismatched spool
        files count as not completed — that unit simply re-renders, so a
        truncated write costs one unit, never the run."""
        run_path.mkdir(parents=True, exist_ok=True)
        manifest = self._manifest(len(units))
        manifest_path = run_path / _MANIFEST_NAME
        existing = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
        if existing != manifest:
            if existing is not None:
                if not _older_manifest(existing, manifest):
                    raise ValueError(
                        f"run directory {run_path} belongs to a different render "
                        "(manifest mismatch); refusing to mix checkpoints"
                    )
                for stale in run_path.glob("task_*.npz"):
                    stale.unlink()
            atomic_write(manifest_path, json.dumps(manifest, indent=1, sort_keys=True).encode())
            return set()
        loaded = set()
        for idx, unit in enumerate(units):
            path = _spool_path(run_path, idx)
            if not path.exists():
                continue
            try:
                *record, frames, counts, events = _load_task_result(path)
                if tuple(record) == unit and load(idx, (frames, counts, events)):
                    loaded.add(idx)
            except Exception:
                continue
        return loaded

    def _spooler(self, run_path: Path, units: list, box_of, assembler):
        """``spool(assignment, result)``: save an accepted unit under its
        index in ``units``."""
        tel = self.options.telemetry
        # A TCP unit whose first worker died comes home as the remainder
        # partial salvage left, so key on what narrowing keeps: the region
        # and the end frame.
        index_of = {(ri, f1): i for i, (ri, _f0, f1) in enumerate(units)}

        def spool(a, result) -> None:
            idx = index_of[(a.region_index, a.frame1)]
            ri, f0, f1 = units[idx]
            _frames, counts, events = result
            # Composited: the validator, and any salvage before it, proved
            # the unit's whole range is in the assembler.  The counts of
            # salvaged frames were lost with their worker.
            frames = assembler.segment(box_of(ri), f0, f1)
            rows = np.zeros((f1 - f0, ROW), dtype=np.int64)
            rows[f1 - f0 - len(counts):] = counts
            _save_task_result(_spool_path(run_path, idx), (ri, f0, f1, frames, rows, events))
            tel.event("checkpoint", task=idx, action="saved")

        return spool

    def _acceptor(self, fold: RunFold, spool, fold_unit, box_of):
        """The transports' ``on_result(assignment, result, t_offset=0.0)``
        hook, called once the validator composited the unit and found its
        range covered, and the one place a unit's worker event buffer is
        parsed.  A pool unit's frames are reported here (``fold_unit``) and
        its shared-memory segment is released on the spot.  On either
        transport its counts rows join the tally, its buffer joins the live
        stream (shifted by ``t_offset``, a TCP lane's clock offset) and the
        run's accounting ``fold``, then the unit is spooled."""
        tel = self.options.telemetry
        pooled = self.options.transport != "tcp"

        def on_result(a, result, t_offset: float = 0.0) -> None:
            events = _task_events(result)
            fold_unit(a.worker, box_of(a.region_index), a.frame0, a.frame1, result)
            if pooled:
                release_refs([result])
            tel.absorb(events, t_offset=t_offset)
            for rec in events:
                fold.emit(rec)
            if spool is not None:
                spool(a, result)

        return on_result

    # -- transports ----------------------------------------------------------------
    def _transport(self, policy, box_of, label, validate, assembler, on_result, report):
        """The transport that will drive ``policy``: the supervised pool or
        the loopback network farm, both executing the segment task."""
        opts, spec = self.options, self.spec
        # The grid is a function of every frame: swept once, here, and shipped
        # as (resolution, lo, hi).  An in-process lane finds this very object
        # in the cache; a forked or remote worker builds its own from the bounds.
        res = int(opts.grid_resolution)
        sweep = lambda: grid_for_animation(self._anim, res)  # noqa: E731
        swept = _cached((*_spec_key(spec), res), sweep) if self._in_process else sweep()
        lo, hi = swept.bounds.lo, swept.bounds.hi
        grid = (res, tuple(map(float, lo)), tuple(map(float, hi)))
        prof = str(opts.profile_dir) if opts.profile_dir else None
        tel = opts.telemetry
        run_id, run_span, enabled = tel.run_id, self._run_span, tel.enabled

        def ctx_of(a, lane):
            # Per-dispatch trace context: the worker's task span parents
            # under this assignment's flight span (id derivable from the
            # dispatch seq on both sides of the wire) and reports the
            # scheduling lane as its worker identity.
            if not enabled:
                return False
            return TraceContext(
                run=run_id, parent=flight_span_id(a.seq), seed=f"s{a.seq}",
                worker=str(lane),
            ).to_arg()

        spec_arg = spec
        if opts.transport == "tcp":
            from ..net.tasks import spec_to_wire

            spec_arg = spec_to_wire(spec)

        # The renderer's horizon: only an adaptive chain whose segments
        # continue a parked renderer renders past its unit, to its shot's end.
        continued = not getattr(policy, "continuation_fresh", True)
        shot_end = [b for a, b in self._shots for _f in range(a, b)]

        def materialize(a, lane):
            horizon = shot_end[a.frame0] if continued else int(a.frame1)
            return (spec_arg, box_of(a.region_index), int(a.frame0), int(a.frame1), horizon,
                    bool(a.fresh), label, grid, opts.shadow_coherence,
                    ctx_of(a, lane), prof)

        if opts.transport == "tcp":
            from ..net.master import TcpTransport

            return TcpTransport(
                policy,
                "render_segment",
                materialize,
                opts,
                trace_root=run_span,
                validate=validate,
                on_result=on_result,
                assembler=assembler,
                tile_box=lambda a: box_of(a.region_index),
                on_tile=report,
            )

        # Process pools get a shared-memory frame store: workers render
        # into segments and return FrameRef handles, so no pixels are
        # pickled back across the fork boundary.  The supervisor sweeps
        # stragglers (crashed attempts); the farm releases each ref as it
        # composites it.
        store = SharedFrameStore() if opts.executor == "process" else None
        return TaskSupervisor(
            policy,
            _render_segment_task,
            materialize,
            opts,
            on_result=on_result,
            trace_root=run_span,
            frame_store=store,
            initializer=_worker_init,
            initargs=(spec, store.token if store else None),
            validate=validate,
        )

    # -- entry point -------------------------------------------------------------
    def render(self, run_dir: str | Path | None = None) -> FarmResult:
        """Render all frames; assemble and return them with merged stats.

        ``run_dir`` spools each completed unit of a fixed unit list
        (``schedule="static"`` or ``"demand"``, on either transport) to
        that directory as ``task_NNNN.npz`` — ``NNNN`` is the unit's index
        in the list — beside a ``manifest.json`` describing the render.
        A file there is the record that its unit is done: on a directory
        that already holds some, those units are loaded instead of
        rendered (resume).  ``schedule="adaptive"`` has no fixed list and
        refuses a ``run_dir``.
        """
        if run_dir is not None and self.options.schedule == "adaptive":
            raise ValueError(
                "checkpoint spooling (run_dir) requires schedule='static' or "
                "'demand'; the adaptive schedule decides its units at run time"
            )
        from ..dfb import FrameAssembler

        # The one compositor: every unit's pixels land in it exactly once,
        # as the unit is accepted, whatever brought them home.
        assembler = FrameAssembler(self._anim.n_frames, self._cam.width, self._cam.height)
        try:
            return self._run(assembler, run_dir)
        finally:
            # A no-op once take_frames() handed the stack to the caller; a
            # failed run's composite buffers go back to the pool.
            assembler.release()

    def _run(self, assembler, run_dir) -> FarmResult:
        """:meth:`render` proper, compositing into ``assembler``."""
        opts, anim, cam, tel = self.options, self._anim, self._cam, self.options.telemetry
        units, regions = self._unit_list()
        label = opts.mode if opts.schedule == "static" else opts.schedule

        def box_of(region_index):
            if regions is None or region_index < 0:
                return None
            r = regions[region_index]
            return (r.x0, r.y0, r.x1, r.y1)

        tally = np.zeros((anim.n_frames, ROW), dtype=np.int64)
        fold_unit, report = self._compositing(assembler, tally)
        validate = self._validator(assembler)
        if opts.profile_dir:
            Path(opts.profile_dir).mkdir(parents=True, exist_ok=True)

        t_run0 = self._begin_trace()
        tel.event(
            "run.start",
            engine="farm",
            workload=self.spec.factory,
            n_frames=int(anim.n_frames),
            width=int(cam.width),
            height=int(cam.height),
            n_workers=opts.n_workers,
            mode=label,
        )

        # Units a previous run already spooled pass the same gate as any
        # other, judged against their place in the unit list, and never
        # reach the policy.  Their pixels count toward the run's totals,
        # but their spans are not re-emitted — those belong to another
        # run's trace and another process's clock.
        n_loaded = 0
        fold = RunFold()
        spool = None
        if run_dir is not None:

            def load(idx, res) -> bool:
                ri, f0, f1 = units[idx]
                if not validate((None, box_of(ri), f0, f1), res):
                    return False
                tel.event("checkpoint", task=idx, action="loaded")
                for rec in _task_events(res):
                    if rec.get("name") == "frame":
                        fold.emit(rec)
                fold_unit("", box_of(ri), f0, f1, res)
                return True

            loaded = self._load_spool(Path(run_dir), units, load)
            spool = self._spooler(Path(run_dir), units, box_of, assembler)
            units = [u for idx, u in enumerate(units) if idx not in loaded]
            n_loaded = len(loaded)

        out = None
        if units is None or units:  # else every unit was loaded: start nothing
            transport = self._transport(
                self._policy(units, regions), box_of, label, validate, assembler,
                self._acceptor(fold, spool, fold_unit, box_of), report,
            )
            if opts.preview is not None:
                opts.preview.attach(
                    assembler,
                    workload=self.spec.factory,
                    n_workers=int(opts.n_workers),
                )
            try:
                out = transport.run()
            finally:
                if opts.preview is not None:
                    opts.preview.detach()
        sup = out.supervisor if out is not None else SupervisorOutcome()
        n_tasks = n_loaded + (len(out.assignments) if out is not None else 0)
        stats = RayStats.merge(tally[:, :N_KINDS])

        if tel.enabled:
            self._emit_run_telemetry(fold, sup, stats, n_tasks)
        self._end_trace(t_run0)
        return FarmResult(
            frames=assembler.take_frames(),
            stats=stats,
            n_tasks=n_tasks,
            mode=label,
            recovery=sup.recovery,
            n_from_checkpoint=n_loaded,
            attempts=sup.attempts,
            net=out.net if out is not None else None,
            counts=tally,
            shots=list(self._shots),
        )

    def _emit_run_telemetry(self, fold: RunFold, sup, stats: RayStats, n_tasks: int) -> None:
        """Emit the run-level events (task.attempt timeline, per-worker
        utilization, run.end totals) into the farm's telemetry session;
        ``fold`` holds the accepted units' worker events.  The ``recovery``
        events were emitted live, lane by lane, as the master lost them."""
        tel = self.options.telemetry
        for a in sup.attempts:
            tel.event(
                "task.attempt",
                task=a.task_index,
                attempt=a.attempt,
                outcome=a.outcome,
                duration=a.duration,
                started=a.started,
            )
            tel.histogram("task.duration", a.duration)

        wall = sup.wall_time
        for row in fold.worker_rows(wall):
            tel.event("worker", **row)
        if self.options.profile_dir:
            tel.event("profile", path=str(self.options.profile_dir))
        computed, copied = fold.pixel_totals()
        tel.event(
            "run.end",
            wall_time=wall,
            computed_pixels=computed,
            copied_pixels=copied,
            n_tasks=n_tasks,
            n_workers=self.options.n_workers,
            rays_camera=stats.camera,
            rays_reflected=stats.reflected,
            rays_refracted=stats.refracted,
            rays_shadow=stats.shadow,
            rays_total=stats.total,
        )

    def render_reference(self) -> FarmResult:
        """A full :class:`~repro.render.RayTracer` render of every frame: the
        ground truth, independent of coherence, scheduling and compositing."""
        renders = [RayTracer(self._anim.scene_at(f)).render() for f in range(self._anim.n_frames)]
        return FarmResult(
            frames=np.stack([fb.as_image() for fb, _res in renders]),
            stats=RayStats.merge(res.stats for _fb, res in renders),
            n_tasks=len(renders),
            mode="reference",
        )
