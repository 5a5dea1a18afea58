"""The worker daemon's task registry: name -> callable.

Assignments cross the wire carrying a *task name*, never code — the same
stance :class:`~repro.runtime.spec.AnimationSpec` takes toward scenes
(the paper's slaves re-parsed the scene locally; ours rebuild it from a
factory recipe).  A worker only ever executes functions registered here,
so a master cannot inject arbitrary callables into a daemon.

Task arguments and results must be wire-encodable
(:mod:`repro.net.protocol` types); ``render_segment`` therefore receives
the :class:`AnimationSpec` as a plain ``{"factory", "kwargs"}`` dict,
which it rebuilds, and the voxel grid as ``(resolution, lo, hi)``: bounds
the master swept from every frame, so a worker builds only its own
frames' scenes.  It delegates to the farm's segment renderer, which keeps
the :class:`~repro.coherence.CoherentRenderer` continuation cache
(:data:`repro.runtime.local._SEGMENT_CACHE`) warm across the consecutive
segments of a chain, because a TCP lane pins a chain to one worker
process.
"""

from __future__ import annotations

__all__ = ["REGISTRY", "task", "echo", "render_segment", "spec_to_wire"]

REGISTRY: dict[str, object] = {}


def task(name: str, *, streaming: bool = False):
    """Register ``fn`` under ``name`` for dispatch-by-name over the wire.

    ``streaming=True`` marks a task that accepts an ``emit_tile`` keyword
    (a :class:`~repro.net.worker._TileSink`) and streams finished tiles
    while it runs — the worker only offers the sink to flagged tasks.
    """

    def register(fn):
        fn.streaming = streaming
        REGISTRY[name] = fn
        return fn

    return register


def spec_to_wire(spec) -> dict:
    """AnimationSpec -> the plain dict ``render_segment`` rebuilds it from."""
    return {"factory": spec.factory, "kwargs": dict(spec.kwargs)}


@task("echo")
def echo(args):
    """Return the arguments unchanged (dispatch-log equivalence tests and
    wire benchmarks, where only the scheduling decisions matter)."""
    return args


@task("sleep_echo")
def sleep_echo(args):
    """``(delay_seconds, payload) -> payload`` after sleeping — a stand-in
    workload for failure drills that need assignments to overlap in time
    (an instant echo run can finish before a second worker even joins)."""
    import time

    delay, payload = args
    time.sleep(float(delay))
    return payload


@task("render_segment", streaming=True)
def render_segment(args, emit_tile=None):
    """Render frames ``[f0, f1)`` of one region with the farm's segment
    renderer (continuation-cache aware); see ``_render_segment_task``.
    With ``emit_tile`` the finished frames stream out as tiles and the
    returned ``(frames, counts, events)`` carries ``frames=None`` — what a
    master with an assembler asks for."""
    from ..runtime.local import _render_segment_task
    from ..runtime.spec import AnimationSpec

    spec_dict, box, f0, f1, horizon, fresh, label, grid, shadow, tel_ctx, prof = args
    spec = AnimationSpec(str(spec_dict["factory"]), dict(spec_dict["kwargs"]))
    box = None if box is None else tuple(int(v) for v in box)
    # tel_ctx passes through untouched: a trace-context dict (run id,
    # parent flight span, namespace seed, lane), or falsy for telemetry off.
    return _render_segment_task(
        (spec, box, int(f0), int(f1), int(horizon), bool(fresh), str(label), grid,
         bool(shadow), tel_ctx, prof),
        emit_tile=emit_tile,
    )
