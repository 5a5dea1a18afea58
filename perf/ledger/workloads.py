"""The six workloads: what is requested, at which size, and why.

Every workload is a closed loop of one request at a time from one harness
process; farm workloads use two workers because the machine has two cores.
Three sizes exist per workload:

``full``
    The paper's canonical 320x240 sizes: what ``python perf/run.py`` (the
    ledger) runs.
``gate``
    The same request cut down until one takes about two seconds, so that a
    ten-second run holds several of them.  ``--workload`` (the benchmark
    driver's contract) and ``--quick`` use these.  Per-frame fixed costs
    dominate this code base (45 Newton frames take 26 s at 320x240 and still
    10 s at 160x120), so the gate sizes cut *frames* before pixels.
``warm``
    Four frames at 64x48 through the same engine and transport: the set-up
    warm-up whose cost is part of ``setup_s``.

The program only ever sees the resulting ``AnimationSpec`` keyword
arguments; ``--seed`` is turned into them here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Workload", "WORKLOADS", "GRID_RESOLUTION", "build_spec"]

GRID_RESOLUTION = 24
_CANONICAL_FRAMES = 45


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: str  # "newton" | "hold" | "orbit"
    request: dict  # RenderRequest fields, or render_sharded_tcp keywords
    sizes: dict  # "full" | "gate" | "warm" -> {width, height, n_frames, ...}
    repeats: int  # timed requests of a ledger run (3 where one takes half a minute)
    streams: bool = False  # on_frame fires while the request runs, not at its end
    sharded: bool = False  # render_sharded_tcp instead of api.render
    discard_first: bool = False  # one untimed request at the run's size before the timed ones

    @property
    def n_workers(self) -> int:
        return self.request.get("n_workers", 1)

    @property
    def serial(self) -> bool:
        return self.request.get("engine") == "animation"


def _sizes(full, gate, warm) -> dict:
    keys = ("width", "height", "n_frames")
    out = {}
    for name, row in (("full", full), ("gate", gate), ("warm", warm)):
        size = dict(zip(keys, row[:3]))
        size.update(row[3] if len(row) > 3 else {})
        out[name] = size
    return out


_TCP = {"engine": "farm", "transport": "tcp", "schedule": "adaptive", "n_workers": 2}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "newton_serial",
            "Table 1 column (2), the canonical run: render+accel+coherence do all the work, "
            "no transport; its wall is the base of every efficiency ratio.",
            "newton",
            {"engine": "animation"},
            _sizes((320, 240, 45), (128, 96, 12), (64, 48, 4)),
            repeats=3,
            streams=True,
        ),
        Workload(
            "orbit_serial",
            "Moving camera: every frame is a full render, so the tracer kernel carries the "
            "run and a coherence change must show no change here.",
            "orbit",
            {"engine": "animation"},
            _sizes((320, 240, 8), (128, 96, 8), (64, 48, 4)),
            repeats=5,
        ),
        Workload(
            "newton_seq_tcp",
            "The paper's sequence division on real sockets: net+dfb+sched adaptive+worker "
            "daemons, 32-px tiles, two segments per chain so no tail steal can occur.",
            "newton",
            dict(_TCP),
            # Two segments per chain at both sizes.  With the default 1-frame
            # segments, whether the first finisher steals the other chain's tail
            # is a coin flip: identical requests traced 3,240,582 or 3,382,810
            # or 3,431,42x rays at full size (181k <-> 210k at the gate size,
            # wall +-10 %).  A steal needs the victim to hold more than one
            # whole segment, which two-segment chains never do.
            _sizes(
                (320, 240, 45, {"segment_frames": 12}),
                (128, 96, 12, {"segment_frames": 3}),
                (64, 48, 4),
            ),
            repeats=5,
            streams=True,
        ),
        Workload(
            "newton_blocks_proc",
            "The paper's frame division (4x3 blocks, demand-driven): runtime supervisor + "
            "shared-memory buffers + sched demand policy; same pixels as newton_seq_tcp "
            "through shared memory instead of sockets.",
            "newton",
            {"engine": "farm", "transport": "process", "schedule": "demand", "n_workers": 2},
            _sizes((320, 240, 45), (128, 96, 6), (64, 48, 4)),
            repeats=3,
        ),
        Workload(
            "hold_tcp",
            "A held shot: two frames of ray work, then 88 of pure bookkeeping and every tile "
            "through codec, socket and compositor; the tracer kernel is a fifth of worker time, "
            "fixed cost the rest.",
            "hold",
            dict(_TCP),
            # One segment per chain rules out timing-dependent tail steals.
            _sizes(
                (320, 240, 90, {"segment_frames": 45}),
                (160, 120, 90, {"segment_frames": 45}),
                (64, 48, 4, {"segment_frames": 2}),
            ),
            repeats=5,
            streams=True,
            discard_first=True,
        ),
        Workload(
            "newton_shard_tcp",
            "Object-space division: rays cross the wire instead of pixels, no coherence; the "
            "only workload carried by shard routing, the round barrier and MSG_RAYS traffic.",
            "newton",
            {"shards": 4, "n_workers": 2},
            _sizes(
                (320, 240, 45, {"frames": 10}),
                (128, 96, 12, {"frames": 6}),
                (64, 48, 4, {"frames": 2}),
            ),
            repeats=5,
            sharded=True,
            discard_first=True,
        ),
    )
}


def _scene_kwargs(scene: str, seed: int, n_frames: int) -> dict:
    """Seed 0 is the paper's canonical scene; any other seed perturbs it.

    The ranges are narrow enough that the work stays comparable between
    seeds (``rays_total`` spreads by about 2 %): the driver gates every
    end-to-end metric on its spread over ten seeds.
    """
    if scene == "orbit":
        if seed == 0:
            return {}
        rng = np.random.default_rng(seed)
        return {
            "radius": float(rng.uniform(6.8, 7.2)),
            "elevation": float(rng.uniform(2.3, 2.5)),
        }
    if scene == "hold":
        return {"swing_degrees": 0.0}
    swing, cycles = 35.0, 1.25
    if seed != 0:
        rng = np.random.default_rng(seed)
        swing = float(rng.uniform(30.0, 40.0))
        cycles = float(rng.uniform(1.1, 1.4))
    # ``cycles`` spans the whole animation; scale it so a shorter gate
    # animation moves per frame exactly as the 45-frame one does.
    cycles *= (n_frames - 1) / (_CANONICAL_FRAMES - 1)
    return {"swing_degrees": swing, "cycles": cycles}


def build_spec(workload: Workload, size: str, seed: int):
    """The ``AnimationSpec`` the program is handed for this workload."""
    from repro.runtime import AnimationSpec

    dims = workload.sizes[size]
    kwargs = {k: dims[k] for k in ("n_frames", "width", "height")}
    kwargs.update(_scene_kwargs(workload.scene, seed, dims["n_frames"]))
    factory = (
        "repro.scenes.orbit:orbit_animation"
        if workload.scene == "orbit"
        else "repro.scenes.newton:newton_animation"
    )
    return AnimationSpec(factory, kwargs)
