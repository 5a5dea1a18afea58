"""Timing wrappers around the layers' public callables, and the span fold.

A traced request installs the wrappers in :data:`WRAPS`, runs, and removes
them again (originals restored by identity).  Each wrapped call records one
span ``[name, layer, start, end, parent]``; a span's *self time* is its
duration minus the time its direct children cover, and a layer's self time
is the sum over its spans.  Spans stay in memory until the run ends.

Two properties of this code base shape :func:`_bindings`:

* ``repro.render`` the *function* shadows ``repro.render`` the subpackage on
  the ``repro`` package object, so ``import repro.render.raytracer as m``
  fails; modules are resolved with :func:`importlib.import_module`.
* ``from ..accel import traverse``-style imports copy the function into the
  importing module's namespace, so a module-level function is rebound in
  *every* loaded ``repro`` module that holds the original.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "WRAPS", "fold"]

_NAME, _LAYER, _START, _END, _PARENT = range(5)


# -- counts taken at the same boundaries as the spans ------------------------------
def _count_marks(tr, args, out):
    tr.counts["accel.marks"] += int(out[0].size)


def _keep_policy(tr, args, out):
    tr.objects["policy"] = args[0]


def _keep_net(tr, args, out):
    tr.objects["net"] = args[0].net


def _count_shm(tr, args, out):
    from repro.buffers import FrameRef

    def walk(obj, depth=0):
        if isinstance(obj, FrameRef):
            yield obj
        elif isinstance(obj, (tuple, list)) and depth < 3:
            for item in obj:
                yield from walk(item, depth + 1)

    tr.counts["buffers.shm_bytes"] += sum(ref.nbytes for ref in walk(args[0]))


_POLICY_CALLS = ("next_assignment", "on_result", "on_partial_result", "on_worker_lost")

#: (module, attribute path, span name, layer, count hook).  One row per
#: public callable at a layer boundary; the layer names are the packages'.
WRAPS: list[tuple] = [
    ("repro.render.raytracer", "RayTracer.trace_pixels", "render.trace_pixels", "render", None),
    ("repro.render.intersect", "SceneIntersector.nearest", "render.nearest", "render", None),
    ("repro.render.intersect", "SceneIntersector.shadow_attenuation",
     "render.shadow_attenuation", "render", None),
    ("repro.accel.dda", "traverse", "accel.traverse", "accel", _count_marks),
    ("repro.coherence.engine", "CoherentRenderer.render_next",
     "coherence.render_next", "coherence", None),
    ("repro.coherence.voxel_pixel_map", "VoxelPixelMap.add_marks",
     "coherence.add_marks", "coherence", None),
    ("repro.coherence.voxel_pixel_map", "VoxelPixelMap.remove_pixels",
     "coherence.remove_pixels", "coherence", None),
    ("repro.coherence.voxel_pixel_map", "VoxelPixelMap.replace_pixel_marks",
     "coherence.replace_pixel_marks", "coherence", None),
    ("repro.coherence.voxel_pixel_map", "VoxelPixelMap.pixels_for_voxels",
     "coherence.pixels_for_voxels", "coherence", None),
    ("repro.coherence.change_detection", "changed_voxels",
     "coherence.changed_voxels", "coherence", None),
    *[
        ("repro.sched.core", f"{cls}.{call}", f"sched.{call}", "sched", _keep_policy)
        for cls in ("SchedulingPolicy", "DemandDrivenPolicy", "AdaptiveChainPolicy",
                    "ObjectSpacePolicy")
        for call in _POLICY_CALLS
    ],
    ("repro.runtime.local", "LocalRenderFarm.__init__", "runtime.farm_init", "runtime", None),
    ("repro.runtime.local", "LocalRenderFarm.render", "runtime.farm_render", "runtime", None),
    ("repro.runtime.supervisor", "TaskSupervisor.run", "runtime.supervisor_run", "runtime", None),
    ("repro.buffers", "attach_refs", "buffers.attach_refs", "buffers", _count_shm),
    ("repro.buffers", "release_refs", "buffers.release_refs", "buffers", None),
    ("repro.net.master", "TcpTransport.run", "net.transport_run", "net", None),
    ("repro.net.master", "MasterServer.listen", "net.listen", "net", None),
    ("repro.net.master", "MasterServer.serve", "net.serve", "net", _keep_net),
    ("repro.net.protocol", "send_frame", "net.send_frame", "net", None),
    ("repro.net.protocol", "encode_parts", "net.encode_parts", "net", None),
    ("repro.net.protocol", "decode", "net.decode", "net", None),
    ("repro.net.protocol", "FrameAssembler.feed", "net.assembler_feed", "net", None),
    ("repro.net.protocol", "FrameAssembler.__iter__", "net.assembler_iter", "net", None),
    ("repro.dfb", "FrameAssembler.add_tile", "dfb.add_tile", "dfb", None),
    ("repro.dfb", "FrameAssembler.add_segment", "dfb.add_segment", "dfb", None),
    ("repro.dfb", "FrameAssembler.frame_image", "dfb.frame_image", "dfb", None),
    ("repro.dfb", "FrameAssembler.take_frames", "dfb.take_frames", "dfb", None),
    ("repro.shard.net", "ShardSession.pump", "shard.pump", "shard", None),
    ("repro.shard.net", "ShardSession.on_reply", "shard.on_reply", "shard", None),
    ("repro.shard.partition", "partition_scene", "shard.partition_scene", "shard", None),
    ("repro.telemetry.core", "Telemetry.emit", "telemetry.emit", "telemetry", None),
    ("repro.telemetry.core", "Telemetry.absorb", "telemetry.absorb", "telemetry", None),
]


def _bindings(module_name: str, path: str):
    """Every ``(owner, attribute)`` that currently holds the callable."""
    module = importlib.import_module(module_name)
    head, _, tail = path.partition(".")
    if tail:  # a method: one binding, in its class dict (skip inherited ones)
        cls = getattr(module, head)
        return [(cls, tail)] if tail in vars(cls) else []
    original = getattr(module, head)
    return [
        (mod, head)
        for name, mod in list(sys.modules.items())
        if mod is not None
        and (name == "repro" or name.startswith("repro."))
        and vars(mod).get(head) is original
    ]


class Tracer:
    """Records spans for one traced request at a time.

    ``spans`` is a list of ``[name, layer, start, end, parent_record]``;
    ``counts`` and ``objects`` hold what the count hooks picked up at the
    same boundaries: marks returned by the DDA, and the two objects the
    public result does not hand out — the scheduling policy (for its
    documented ``log`` and ``n_steals``) and the master's ``NetStats``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.objects: dict[str, object] = {}
        self._local = threading.local()
        self._saved: list[tuple] = []
        # A forked pool worker inherits the wrappers; it must not pay for
        # (or record) spans nobody will ever read.
        self._pid = os.getpid()

    # -- span recording ----------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack()
        rec = [name, layer, time.perf_counter(), 0.0, stack[-1] if stack else None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span the harness opens itself (the request root, materialize)."""
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str, layer: str, hook):
        tracer = self

        def timed(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            rec = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                hook(tracer, args, out)
            return out

        timed.__wrapped__ = fn
        return timed

    def _wrap_iter(self, fn, name: str, layer: str):
        """A generator method: time each resumption, not the consumer."""
        tracer = self

        def timed_iter(*args, **kwargs):
            it = fn(*args, **kwargs)
            if os.getpid() != tracer._pid:
                yield from it
                return
            while True:
                rec = tracer._open(name, layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(rec)
                yield item

        timed_iter.__wrapped__ = fn
        return timed_iter

    # -- install / remove --------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for module_name, path, name, layer, hook in WRAPS:
            for owner, attr in _bindings(module_name, path):
                original = vars(owner)[attr]
                if attr == "__iter__":
                    wrapped = self._wrap_iter(original, name, layer)
                else:
                    wrapped = self._wrap(original, name, layer, hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- export ------------------------------------------------------------------------
    def start_of(self, name: str) -> float | None:
        """When the first span called ``name`` opened (perf_counter), if any."""
        return next((rec[_START] for rec in self.spans if rec[_NAME] == name), None)

    def export(self, workload: str, run_id: str) -> list[dict]:
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": rec[_NAME],
                "layer": rec[_LAYER],
                "start": rec[_START],
                "end": rec[_END],
                "parent": None if rec[_PARENT] is None else ids[id(rec[_PARENT])],
                "workload": workload,
                "run": run_id,
            }
            for i, rec in enumerate(self.spans)
        ]


def fold(spans: list[list]) -> tuple[dict, dict]:
    """``(self seconds by span name, self seconds by layer)``."""
    covered: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[_PARENT] is not None:
            covered[id(rec[_PARENT])] += rec[_END] - rec[_START]
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    for rec in spans:
        own = (rec[_END] - rec[_START]) - covered[id(rec)]
        by_name[rec[_NAME]] += own
        by_layer[rec[_LAYER]] += own
    return by_name, by_layer
