"""Unified render API: one request, three engines, one telemetry spine.

The reproduction has two ways to turn an animation into pixels and one
way to model what it would have cost:

* the **farm** (:mod:`repro.runtime`) — real master/worker parallelism with
  crash/hang recovery and checkpoint-resume;
* the **animation** engine — the same farm on one inline lane
  (``executor="serial"``, one worker, adaptive one-frame segments that
  continue one renderer per shot): single-process frame coherence, the
  paper's extended POV-Ray renderer, each frame delivered as it is done;
* the **simulator** (:func:`repro.sched.simulate`) — the discrete-event NOW
  model behind Table 1.

:func:`render` dispatches a :class:`RenderRequest` to any of them and
returns a :class:`RenderResult`.  All three paths thread the same
:class:`~repro.telemetry.Telemetry` through, so a real farm run and a
simulated run of the same workload emit telemetry with an identical
schema — compare them with ``repro telemetry <run_dir>`` or
:func:`repro.telemetry.report_from_events`.

Example::

    from repro.api import RenderRequest, render

    result = render(RenderRequest(workload="newton", n_frames=8,
                                  engine="farm", n_workers=4,
                                  telemetry=True, events_path="run/"))
    print(result.stats.total, "rays;", len(result.events), "events")
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from .render import RayStats
from .runtime.options import FarmOptions
from .scene import Animation
from .service.client import (  # noqa: F401 (re-exported client surface)
    ServiceError,
    cancel,
    job_status,
    list_jobs,
    submit,
    wait,
)
from .telemetry import NULL as NULL_TELEMETRY
from .telemetry import InMemorySink, JsonlSink, Telemetry

__all__ = [
    "RenderRequest",
    "RenderResult",
    "LazyFrames",
    "render",
    "ENGINES",
    "WORKLOADS",
    # render-service client surface (thin re-exports of repro.service.client;
    # `render` runs one request here, `submit`/`wait` hand it to a daemon)
    "ServiceError",
    "submit",
    "job_status",
    "list_jobs",
    "cancel",
    "wait",
]

ENGINES = ("animation", "farm", "simulate")

#: Named workloads: name -> ``module:function`` animation factory.  The one
#: table behind ``RenderRequest.workload`` strings and the CLI's choices.
WORKLOADS = {
    "newton": "repro.scenes.newton:newton_animation",
    "brick": "repro.scenes.brick_room:brick_room_animation",
    "spheres": "repro.scenes.stress:random_spheres_animation",
    "orbit": "repro.scenes.orbit:orbit_animation",
}


@dataclass(frozen=True)
class RenderRequest(FarmOptions):
    """Everything the facade needs to run any engine.

    Only the fields relevant to the chosen ``engine`` are consulted; the
    rest keep their defaults harmlessly.  The farm's options are the
    inherited :class:`~repro.runtime.options.FarmOptions` fields, declared
    and documented there (``blackbox_dir=None`` here means the run or
    events directory).  Of those, ``grid_resolution`` and the progress
    callbacks serve every engine: the animation engine reports a frame as
    one whole-frame tile, the simulators' frame events carry no pixels
    (image None).  Every engine traces one camera ray per pixel, as the
    paper's Table 1 counts.  The animation engine is the farm with
    its lane fixed: it sets ``transport``, ``executor``, ``n_workers``,
    ``schedule`` and ``segment_frames`` itself and spools nothing.
    """

    workload: Any = "newton"  # name, Animation, or runtime.AnimationSpec
    engine: str = "animation"
    n_frames: int = 8
    width: int = 160
    height: int = 120

    # farm (engine="farm"), beside the inherited options
    run_dir: str | Path | None = None
    verify: bool = False

    # simulators (engine="simulate")
    strategy: str = "sequence-division-fc"
    machines: list | None = None  # default: cluster.ncsu_testbed()
    oracle: Any = None  # AnimationCostOracle, or a saved-oracle path
    sec_per_work_unit: float = 1e-4
    failures: list[tuple[str, float]] | None = None  # -ft strategies; task_timeout is the deadline

    # telemetry
    telemetry: Any = False  # bool, or a ready-made Telemetry instance
    events_path: str | Path | None = None  # JSONL file or directory

    # observability (implies telemetry when set)
    status_port: int | None = None  # serve live JSON farm status on 127.0.0.1:<port>
    trace_out: str | Path | None = None  # write Chrome trace JSON here at run end


class LazyFrames:
    """Lazy ``(n, H, W, 3)`` accessor behind :attr:`RenderResult.frames`.

    Wraps either a materialized array or a zero-arg thunk producing one;
    the thunk runs at most once, on first pixel access.  The common
    ndarray surface (``np.asarray``, ``shape``, indexing, iteration,
    ``tobytes``) is forwarded so array-shaped callers keep working
    without materializing explicitly.

    A ``releaser`` callback, when given, returns the backing buffers to
    their pool.  For a thunk source it fires automatically right after
    the first materialization (the thunk's shared-memory refs are dead
    weight once this object owns its own stack); for an array source it
    fires only on an explicit :meth:`release`, because then the buffer
    being recycled *is* the one this object serves — after release the
    frames must not be read through this object again, and any access
    raises.
    """

    __slots__ = ("_value", "_thunk", "_releaser")

    def __init__(self, source, releaser=None):
        if callable(source):
            self._value = None
            self._thunk = source
        else:
            self._value = np.asarray(source)
            self._thunk = None
        self._releaser = releaser

    def materialize(self) -> np.ndarray:
        if self._value is None:
            if self._thunk is None:
                raise RuntimeError(
                    "frames were released; re-render to read pixels again"
                )
            self._value = np.asarray(self._thunk())
            self._thunk = None
            self._fire()
        return self._value

    def _fire(self) -> None:
        releaser, self._releaser = self._releaser, None
        if releaser is not None:
            releaser()

    def release(self) -> None:
        """Hand the backing storage back to its owner (idempotent).

        Call when the frames are spooled/consumed and will never be read
        through this object again — e.g. the render service releases a
        job's frames the moment ``frames.npz`` is on disk, so a
        long-lived daemon's resident set stays one job deep.
        """
        self._value = None
        self._thunk = None
        self._fire()

    def __array__(self, dtype=None, copy=None):
        a = self.materialize()
        if dtype is not None:
            a = a.astype(dtype, copy=False)
        if copy:
            a = a.copy()
        return a

    @property
    def shape(self):
        return self.materialize().shape

    @property
    def dtype(self):
        return self.materialize().dtype

    @property
    def nbytes(self) -> int:
        return self.materialize().nbytes

    def __len__(self) -> int:
        return len(self.materialize())

    def __getitem__(self, key):
        return self.materialize()[key]

    def __iter__(self):
        return iter(self.materialize())

    def tobytes(self) -> bytes:
        return self.materialize().tobytes()

    def __repr__(self) -> str:
        if self._value is not None:
            return f"LazyFrames(shape={self._value.shape})"
        if self._thunk is None:
            return "LazyFrames(<released>)"
        return "LazyFrames(<unmaterialized>)"


@dataclass
class RenderResult:
    """Engine-independent result envelope.

    ``frames``/``stats``/``reports`` are populated by the real engines
    (``frames`` as a :class:`LazyFrames` accessor — index it, iterate it,
    or ``np.asarray`` it; ``reports`` one
    :class:`~repro.runtime.local.FrameCounts` per frame, ``sequences`` the
    shots); ``outcome`` carries the
    :class:`~repro.parallel.SimulationOutcome` for ``engine="simulate"``
    (whose ``frames`` stays ``None``).  ``events`` holds the telemetry
    records captured during the run (empty unless telemetry was
    requested).
    """

    engine: str
    workload: str
    n_frames: int
    wall_time: float
    frames: LazyFrames | None = None
    stats: RayStats | None = None
    mode: str = ""
    reports: list = field(default_factory=list)
    sequences: list = field(default_factory=list)
    per_sequence_stats: list = field(default_factory=list)
    shadow_rays_saved: int = 0
    n_tasks: int = 0
    n_workers: int = 1
    recovery: dict = field(default_factory=dict)
    n_from_checkpoint: int = 0
    bit_identical: bool | None = None
    outcome: Any = None
    events: list = field(default_factory=list)
    events_path: Path | None = None
    trace_path: Path | None = None

    def total_computed_pixels(self) -> int:
        return sum(r.n_computed for r in self.reports)

    def total_copied_pixels(self) -> int:
        return sum(r.n_copied for r in self.reports)


# -- request resolution ----------------------------------------------------------
def _resolve_workload(req: RenderRequest):
    """Return ``(label, spec_or_None, animation_or_None)``.

    The animation is built lazily by callers that need it; a farm whose
    workers are other processes needs a picklable spec (a name or an
    AnimationSpec), not a live Animation object.
    """
    from .runtime import AnimationSpec

    w = req.workload
    if isinstance(w, str):
        try:
            factory = WORKLOADS[w]
        except KeyError:
            raise ValueError(
                f"unknown workload {w!r}; expected one of {sorted(WORKLOADS)} "
                "or an Animation/AnimationSpec"
            ) from None
        spec = AnimationSpec(
            factory,
            {"n_frames": req.n_frames, "width": req.width, "height": req.height},
        )
        return w, spec, None
    if isinstance(w, AnimationSpec):
        return w.factory, w, None
    if isinstance(w, Animation):
        return type(w).__name__, None, w
    raise TypeError(f"workload must be str, Animation or AnimationSpec, not {type(w).__name__}")


def _setup_telemetry(req: RenderRequest):
    """Return ``(telemetry, memory_sink, jsonl_path, fold, owned)``."""
    fold = None
    if req.status_port is not None:
        from .obs import StragglerDetector
        from .telemetry import RunFold

        # One sink behind /status and /metrics alike.
        fold = RunFold(detector=StragglerDetector())
    if isinstance(req.telemetry, Telemetry):
        if fold is not None:
            req.telemetry.sinks.append(fold.bind(req.telemetry))
        return req.telemetry, None, None, fold, False
    want = (
        bool(req.telemetry)
        or req.events_path is not None
        or req.trace_out is not None
        or fold is not None
    )
    if not want:
        return NULL_TELEMETRY, None, None, None, False
    target = req.events_path if req.events_path is not None else req.run_dir
    mem = InMemorySink()
    sinks = [mem]
    jsonl_path = None
    if target is not None:
        jsonl_path = Path(target)
        if jsonl_path.suffix != ".jsonl":
            jsonl_path = jsonl_path / "events.jsonl"
        jsonl_path.parent.mkdir(parents=True, exist_ok=True)
        sinks.append(JsonlSink(jsonl_path))
    tel = Telemetry(sinks=sinks)
    if fold is not None:
        tel.sinks.append(fold.bind(tel))  # Telemetry copies the sinks list
    return tel, mem, jsonl_path, fold, True


# -- engine dispatch -------------------------------------------------------------
#: The animation engine's farm: one inline lane, one-frame segments that
#: continue the shot's renderer, each frame accepted as soon as it is done.
_INLINE_LANE = dict(transport="process", executor="serial", n_workers=1,
                    schedule="adaptive", segment_frames=1)


def _run_farm(req: RenderRequest, label, spec, anim) -> RenderResult:
    """``req`` as resolved by :func:`render`: its telemetry is the session."""
    from .runtime import LocalRenderFarm

    options = FarmOptions.project(req)
    run_dir = req.run_dir
    if req.engine == "animation":
        options.update(_INLINE_LANE)
        run_dir = None
    farm = LocalRenderFarm(spec if spec is not None else anim, **options)
    t0 = time.perf_counter()
    out = farm.render(run_dir=run_dir)
    wall = time.perf_counter() - t0
    identical = None
    if req.verify:
        reference = farm.render_reference()
        identical = bool(np.array_equal(out.frames, reference.frames))
    # The farm's final stack is pool-acquired (dfb take_frames); wiring
    # the pool back in lets frames.release() recycle it once consumed —
    # a long-running service re-renders same-shaped jobs allocation-free.
    from .buffers import default_pool

    out_frames, reports = out.frames, out.reports()
    return RenderResult(
        engine=req.engine,
        workload=label,
        n_frames=out.n_frames,
        wall_time=wall,
        frames=LazyFrames(out_frames, releaser=lambda: default_pool().release(out_frames)),
        stats=out.stats,
        mode=out.mode,
        reports=reports,
        sequences=out.shots,
        per_sequence_stats=out.shot_stats(),
        shadow_rays_saved=sum(r.shadow_rays_saved for r in reports),
        n_tasks=out.n_tasks,
        n_workers=farm.options.n_workers,
        recovery=out.recovery,
        n_from_checkpoint=out.n_from_checkpoint,
        bit_identical=identical,
    )


def _run_simulate(req: RenderRequest, tel, label, spec, anim) -> RenderResult:
    from .cluster import ncsu_testbed
    from .parallel import AnimationCostOracle, build_oracle
    from .sched import STRATEGIES, simulate

    oracle = req.oracle
    if isinstance(oracle, (str, Path)):
        oracle = AnimationCostOracle.load(oracle)
    elif oracle is None:
        if anim is None:
            anim = spec.build()
        oracle = build_oracle(anim, grid_resolution=req.grid_resolution)
    machines = req.machines if req.machines is not None else ncsu_testbed()
    if not machines:
        raise ValueError("engine='simulate' needs at least one machine")

    t0 = time.perf_counter()
    outcome = simulate(
        req.strategy,
        oracle,
        machines,
        sec_per_work_unit=req.sec_per_work_unit,
        failures=req.failures,
        worker_timeout=req.task_timeout,
        telemetry=tel,
    )
    if req.on_frame is not None:
        from .dfb import FrameEvent

        # Simulated frames have no pixels; the unified surface still
        # reports per-frame completion (image None), so progress UIs
        # work unchanged against a simulation.
        for f in range(oracle.n_frames):
            req.on_frame(FrameEvent(f, None))
    return RenderResult(
        engine="simulate",
        workload=label,
        n_frames=oracle.n_frames,
        wall_time=time.perf_counter() - t0,
        mode=req.strategy,
        n_tasks=0,
        n_workers=1 if STRATEGIES[req.strategy].single else len(machines),
        outcome=outcome,
    )


def render(request: RenderRequest | None = None, /, **kwargs) -> RenderResult:
    """Run ``request`` on its chosen engine and return a :class:`RenderResult`.

    Accepts either a prebuilt :class:`RenderRequest`, keyword arguments for
    one, or both (keywords override request fields)::

        render(workload="brick", engine="animation", n_frames=4)
    """
    if request is None:
        request = RenderRequest(**kwargs)
    elif kwargs:
        request = replace(request, **kwargs)
    if request.engine not in ENGINES:
        raise ValueError(f"unknown engine {request.engine!r}; expected one of {ENGINES}")

    label, spec, anim = _resolve_workload(request)
    tel, mem, jsonl_path, fold, owned = _setup_telemetry(request)
    if request.engine == "farm" and request.blackbox_dir is None:
        # Black boxes default into the run directory (or beside the event
        # log) so a post-mortem finds dump and trace in one place.
        bb = request.run_dir
        if bb is None and jsonl_path is not None:
            bb = jsonl_path.parent
        if bb is not None:
            request = replace(request, blackbox_dir=bb)
    server = None
    if fold is not None:
        from .obs import StatusServer

        # Prometheus text exposition: streaming task-latency percentiles
        # and per-worker health, live during the run.
        routes = {"/metrics": fold.route}
        if request.engine == "farm":
            from .dfb import PreviewHub

            # /preview serves the partially composited frame while a farm
            # run is live; until the farm attaches its assembler the
            # endpoint reports {"available": false}.
            preview = PreviewHub()
            routes["/preview"] = preview.route
            request = replace(request, preview=preview)
        server = StatusServer(fold, port=int(request.status_port), routes=routes)
        server.start()
    try:
        if request.engine != "simulate":
            result = _run_farm(replace(request, telemetry=tel), label, spec, anim)
        else:
            result = _run_simulate(request, tel, label, spec, anim)
    finally:
        if server is not None:
            server.stop()
        if owned:
            tel.close()
        elif fold is not None and fold in tel.sinks:
            tel.sinks.remove(fold)  # borrowed Telemetry: detach what we hung on it
    if mem is not None:
        result.events = list(mem.events)
    result.events_path = jsonl_path
    if request.trace_out is not None and result.events:
        from .obs import write_chrome_trace

        run_id = next((r.get("run") for r in result.events if r.get("run")), "")
        write_chrome_trace(result.events, request.trace_out, run_id=str(run_id or ""))
        result.trace_path = Path(request.trace_out)
    return result
