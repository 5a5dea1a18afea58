"""The wavefront Whitted ray tracer.

Rays are processed in batches (see :class:`~repro.geometry.RayBatch`): one
pass intersects a whole batch, shades all hits, fires all shadow rays, and
emits child reflected/refracted batches for the next depth level.  The
recursion of a classical ray tracer becomes a queue of batches — the numpy
way to keep per-ray Python overhead at zero.

When *path tracking* is enabled, every batch additionally runs the
vectorized 3-D DDA over the uniform grid and records ``(voxel, pixel)``
visits — the raw material of the paper's frame-coherence pixel lists.
Visits are segregated into three classes so the shadow-coherence extension
can reason about them separately:

* ``camera``    — the depth-0 camera segment of each pixel;
* ``pshadow``   — shadow rays fired at the primary (depth-0) hit;
* ``secondary`` — every reflected/refracted ray and their shadow rays.

The coherence engine passes the voxels a later frame can still read
(``readable``); a visit to any other voxel is never recorded, and a ray that
cannot reach one of them is not traversed at all.

The shading model is the paper's:

    I = I_local + k_rg * I_reflected + k_tg * I_transmitted

Kernel and backend
------------------
:func:`trace` is the only wavefront loop in the tree.  It owns the control
flow (FIFO batch order, child spawn, ADC bailout, depth cut, TIR energy)
and every accumulation, and asks a *backend* what it cannot know itself:

* ``nearest(batch, home) -> (t, obj_index, normals)`` — generator; the
  closest hit per ray (``t`` is +inf on a miss);
* ``surfaces(points, normals, obj_index) -> (scene_like, intersector_like,
  owners)`` — generator; what :func:`shade_local` and the children's finish
  lookup run against, plus one opaque tag per hit that comes back as the
  ``home`` of the rays that hit spawns (``None`` for camera rays);
* ``mark(cls, origins, dirs, t_max, pixels)`` — plain call per ray volley
  (the local backend queues it and marks every volley in one pass, at the
  end, keeping only the marks in the tracer's ``readable`` voxels);
* ``shadow_cache`` — attribute, handed to ``shade_local`` at primary hits.

:class:`RayTracer` drives the kernel with the whole scene in this process,
so its backend's generators return without yielding and one ``next()``
runs the trace to ``StopIteration``.  :mod:`repro.shard.engine` drives the
same kernel with a backend that yields request rounds to shard owners.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..accel import UniformGrid, traverse
from ..geometry import RayBatch, RayKind
from ..rmath import dot, ray_aabb_intersect, reflect, refract
from ..scene import Scene
from .framebuffer import Framebuffer
from .intersect import SceneIntersector
from .shading import shade_local
from .shadow_cache import ShadowCache
from .stats import RayStats

__all__ = ["RayTracer", "TraceResult", "MARK_CLASSES", "trace", "traverse_readable"]

#: Children whose maximum throughput falls below this add < 1/255 to the
#: pixel and are culled (POV's adc_bailout).
_ADC_BAILOUT = 1.0 / 255.0

#: Path-mark classes, in reporting order.
MARK_CLASSES = ("camera", "pshadow", "secondary")


def _empty_marks() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    e = np.empty(0, dtype=np.int64)
    return {c: (e, e) for c in MARK_CLASSES}


@dataclass
class TraceResult:
    """Output of tracing a set of pixels.

    Attributes
    ----------
    pixel_ids : (K,) the pixels that were traced (flat indices)
    colors : (K, 3) their final RGB values
    stats : ray counts by kind
    mark_voxels, mark_pixels : parallel arrays of ``(voxel, pixel)`` visits
        across all classes (empty when path tracking is off; may contain
        duplicates — the voxel-pixel map coalesces on insert)
    marks_by_class : per-class ``(voxels, pixels)`` pairs (keys:
        ``camera`` / ``pshadow`` / ``secondary``)
    rays_per_pixel : (K,) total rays fired on behalf of each traced pixel
        (the cost signal consumed by the cluster simulator's oracle)
    n_intersection_tests : per-ray primitive intersection tests executed
        during this trace (telemetry; objects the batch skip proved
        unreachable excluded)
    """

    pixel_ids: np.ndarray
    colors: np.ndarray
    stats: RayStats
    mark_voxels: np.ndarray
    mark_pixels: np.ndarray
    rays_per_pixel: np.ndarray
    marks_by_class: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=_empty_marks)
    n_intersection_tests: int = 0


def trace(scene, backend, pixel_ids, chunk_size: int = 32768):
    """The wavefront loop: a sans-io generator returning a :class:`TraceResult`.

    One camera ray per pixel, through its center, as in the paper's Table 1.
    Camera rays are traced in chunks of ``chunk_size`` pixels, each chunk's
    queue of batches run to completion in FIFO order.  ``backend`` answers
    what the loop cannot (see the module docstring); whatever its two
    generator methods yield is passed up to the driver and the driver's
    ``send()`` values back down, untouched.  The result carries no marks
    and no intersection-test count: those belong to the backend.
    """
    pixel_ids = np.unique(np.asarray(pixel_ids, dtype=np.int64))
    cam = scene.camera
    acc = np.zeros((cam.n_pixels, 3), dtype=np.float64)
    rays_pp = np.zeros(cam.n_pixels, dtype=np.int64)
    stats = RayStats()
    max_depth = scene.max_depth
    background = scene.background

    for start in range(0, pixel_ids.size, chunk_size):
        first = cam.rays_for_pixels(pixel_ids[start : start + chunk_size])
        queue: deque[tuple[RayBatch, object]] = deque([(first, None)])  # camera rays: no home
        while queue:
            batch, home = queue.popleft()
            if len(batch) == 0:
                continue
            stats.record(batch.kind, len(batch))
            np.add.at(rays_pp, batch.pixel, 1)
            is_primary = batch.depth == 0 and batch.kind == RayKind.CAMERA

            t, obj_index, geo_n = yield from backend.nearest(batch, home)
            backend.mark(
                "camera" if is_primary else "secondary", batch.origins, batch.dirs, t, batch.pixel
            )

            hit = np.isfinite(t)
            miss = ~hit
            if np.any(miss):
                np.add.at(acc, batch.pixel[miss], batch.weight[miss] * background)
            if not np.any(hit):
                continue

            hits = batch.select(hit)
            obj_index = obj_index[hit]
            geo_n = geo_n[hit]
            points = hits.points_at(t[hit])
            # Orient normals against the incoming ray.
            facing = dot(geo_n, hits.dirs) < 0.0
            normals = np.where(facing[:, None], geo_n, -geo_n)

            surfaces, occluders, owners = yield from backend.surfaces(points, normals, obj_index)

            # --- I_local (fires shadow rays through the hook) -------------
            shadow_class = "pshadow" if is_primary else "secondary"

            def shadow_hook(origins, dirs, dists, mask):
                stats.record(RayKind.SHADOW, origins.shape[0])
                pixels = hits.pixel[mask]
                np.add.at(rays_pp, pixels, 1)
                backend.mark(shadow_class, origins, dirs, dists, pixels)

            local = shade_local(
                surfaces,
                occluders,
                points,
                normals,
                hits.dirs,
                obj_index,
                shadow_hook=shadow_hook,
                pixel_ids=hits.pixel if is_primary else None,
                shadow_cache=backend.shadow_cache if is_primary else None,
            )
            np.add.at(acc, hits.pixel, hits.weight * local)

            # --- children: k_rg * I_reflected + k_tg * I_transmitted -------
            if batch.depth + 1 >= max_depth:
                continue

            reflection = np.zeros(len(hits), dtype=np.float64)
            transmission = np.zeros(len(hits), dtype=np.float64)
            ior = np.ones(len(hits), dtype=np.float64)
            for idx in np.unique(obj_index):
                sel = obj_index == idx
                fin = surfaces.objects[idx].material.finish
                reflection[sel] = fin.reflection
                transmission[sel] = fin.transmission
                ior[sel] = fin.ior

            refl_weight = hits.weight * reflection[:, None]
            want_refl = refl_weight.max(axis=1) > _ADC_BAILOUT

            # Refraction first (it can convert to reflection on TIR).
            trans_weight = hits.weight * transmission[:, None]
            want_trans = trans_weight.max(axis=1) > _ADC_BAILOUT
            tir_mask = np.zeros(len(hits), dtype=bool)
            if np.any(want_trans):
                eta = np.where(hits.inside, ior, 1.0 / ior)
                refr_dirs, tir = refract(hits.dirs, normals, eta)
                tir_mask = want_trans & tir
                ok = want_trans & ~tir
                if np.any(ok):
                    refracted = RayBatch(
                        origins=points[ok] - normals[ok] * 1e-6,
                        dirs=refr_dirs[ok],
                        pixel=hits.pixel[ok],
                        weight=trans_weight[ok],
                        kind=RayKind.REFRACTED,
                        depth=batch.depth + 1,
                        inside=~hits.inside[ok],
                    )
                    queue.append((refracted, owners[ok]))

            # Reflected batch: regular mirror reflection plus TIR energy.
            spawn_refl = want_refl | tir_mask
            if np.any(spawn_refl):
                w = np.where(
                    tir_mask[:, None], refl_weight + trans_weight, refl_weight
                )[spawn_refl]
                reflected = RayBatch(
                    origins=points[spawn_refl] + normals[spawn_refl] * 1e-6,
                    dirs=reflect(hits.dirs, normals)[spawn_refl],
                    pixel=hits.pixel[spawn_refl],
                    weight=w,
                    kind=RayKind.REFLECTED,
                    depth=batch.depth + 1,
                    inside=hits.inside[spawn_refl],
                )
                queue.append((reflected, owners[spawn_refl]))

    empty = np.empty(0, dtype=np.int64)
    return TraceResult(
        pixel_ids=pixel_ids,
        colors=acc[pixel_ids],
        stats=stats,
        mark_voxels=empty,
        mark_pixels=empty,
        rays_per_pixel=rays_pp[pixel_ids],
    )


#: Padding (in fractions of a voxel edge) around the box of the readable
#: voxels, so that rounding in the DDA never attributes a point outside the
#: padded box to a voxel inside it (the idea of change detection's margin).
_READABLE_PAD_CELLS = 0.01


def traverse_readable(grid, origins, dirs, t_max, readable=None, chunk_size: int = 32768):
    """:func:`~repro.accel.traverse`, keeping only rows whose voxel is in
    ``readable`` (a boolean voxel mask; ``None``: every voxel).

    Rays whose ``[0, t_max]`` segment misses the padded box of the readable
    voxels are dropped, and each kept ray's ``t_max`` is clipped to its exit
    from that box, before ``traverse`` runs (once per ``chunk_size`` rays).
    Both are exact: a clip only ends a traversal early, so its rows are a
    prefix of the full ones, and every voxel the dropped part would visit
    lies outside the box.  With the rays in one chunk the result equals the
    unfiltered ``traverse`` output masked by ``readable``, row for row.
    """
    empty = np.empty(0, dtype=np.int64)
    rays = np.arange(len(origins), dtype=np.int64)
    t_max = np.broadcast_to(np.asarray(t_max, dtype=np.float64), rays.shape)
    if readable is not None:
        cells = grid.unflatten(np.flatnonzero(readable))
        if not cells.size:
            return empty, empty
        pad = _READABLE_PAD_CELLS * grid.cell_size
        lo = grid.bounds.lo + cells.min(axis=0) * grid.cell_size - pad
        hi = grid.bounds.lo + (cells.max(axis=0) + 1) * grid.cell_size + pad
        with np.errstate(divide="ignore"):
            hit, _, t_exit = ray_aabb_intersect(origins, 1.0 / dirs, lo, hi, t_max)
        rays = np.flatnonzero(hit)
        origins, dirs, t_max = origins[rays], dirs[rays], t_exit[rays]
    ray_idx, voxel_id = [empty], [empty]
    for a in range(0, rays.size, chunk_size):
        part = slice(a, a + chunk_size)
        r, v = traverse(grid, origins[part], dirs[part], t_max[part])
        if readable is not None:
            inside = readable[v]
            r, v = r[inside], v[inside]
        ray_idx.append(rays[part][r])
        voxel_id.append(v)
    return np.concatenate(ray_idx), np.concatenate(voxel_id)


class _LocalBackend:
    """The whole scene in this process, plus the ray volleys to mark.

    Both questions are answered by the real scene and its
    :class:`SceneIntersector` without ever suspending the kernel; the
    object index doubles as the per-ray tag, since nothing reads it.
    ``mark`` only queues a volley: :meth:`finalize` runs one filtered
    marking pass (:func:`traverse_readable`) over everything queued, all
    classes at once, and splits the rows back by class.
    """

    def __init__(self, tracer: "RayTracer"):
        self.scene = tracer.scene
        self.intersector = tracer.intersector
        self.grid = tracer.grid if tracer.track_paths else None
        self.readable = tracer.readable
        self.chunk_size = tracer.chunk_size
        self.shadow_cache = tracer.shadow_cache
        self.volleys: dict[str, list[tuple]] = {c: [] for c in MARK_CLASSES}

    def nearest(self, batch: RayBatch, home):
        rec = self.intersector.nearest(batch)
        return rec.t, rec.obj_index, rec.normals
        yield  # never reached: makes this a generator that does not suspend

    def surfaces(self, points, normals, obj_index):
        return self.scene, self.intersector, obj_index
        yield  # never reached, as above

    def mark(self, cls: str, origins, dirs, t_max, pixels) -> None:
        if self.grid is not None:
            self.volleys[cls].append((origins, dirs, t_max, pixels))

    def finalize(self) -> tuple[np.ndarray, np.ndarray, dict]:
        volleys = [v for c in MARK_CLASSES for v in self.volleys[c]]
        if not volleys:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, _empty_marks()
        origins, dirs, t_max, pixels = (np.concatenate(col) for col in zip(*volleys))
        per_class = [sum(v[3].size for v in self.volleys[c]) for c in MARK_CLASSES]
        ray_class = np.repeat(np.arange(len(MARK_CLASSES), dtype=np.int8), per_class)
        ray_idx, voxels = traverse_readable(
            self.grid, origins, dirs, t_max, self.readable, self.chunk_size
        )
        # Rays were concatenated class by class, so a stable sort by class
        # gives each class its rows in the order a per-class pass would.
        row_class = ray_class[ray_idx]
        order = np.argsort(row_class, kind="stable")
        voxels, owners = voxels[order], pixels[ray_idx[order]]
        ends = np.cumsum(np.bincount(row_class, minlength=len(MARK_CLASSES)))
        by_class = {
            c: (voxels[a:b], owners[a:b]) for c, a, b in zip(MARK_CLASSES, [0, *ends], ends)
        }
        return voxels, owners, by_class


class RayTracer:
    """Renders pixels of one scene, optionally tracking ray paths.

    Parameters
    ----------
    scene:
        The scene to render.
    grid:
        Uniform grid for path tracking; built from the scene when omitted
        and ``track_paths`` is on.
    track_paths:
        Record (voxel, pixel) visits for the coherence engine.
    chunk_size:
        Camera rays are traced in chunks of this many pixels to bound peak
        memory (each chunk runs the full wavefront to completion).
    shadow_cache:
        Optional :class:`ShadowCache` enabling the shadow-coherence
        extension at primary hits.
    readable:
        Internal to the coherence engine: a boolean voxel mask, the voxels
        whose marks a later frame can read.  With ``track_paths`` only marks
        in those voxels are recorded; ``None`` records every mark.
    """

    def __init__(
        self,
        scene: Scene,
        grid: UniformGrid | None = None,
        track_paths: bool = False,
        chunk_size: int = 32768,
        shadow_cache: ShadowCache | None = None,
        readable: np.ndarray | None = None,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.scene = scene
        self.track_paths = bool(track_paths)
        if self.track_paths and grid is None:
            grid = UniformGrid.for_scene(scene)
        self.grid = grid
        self.intersector = SceneIntersector(scene.objects)
        self.chunk_size = int(chunk_size)
        self.shadow_cache = shadow_cache
        self.readable = readable
        if shadow_cache is not None:
            if shadow_cache.n_pixels != scene.camera.n_pixels:
                raise ValueError("shadow cache sized for a different resolution")
            if shadow_cache.n_lights != len(scene.lights):
                raise ValueError("shadow cache sized for a different light count")

    # -- public API ---------------------------------------------------------
    def trace_pixels(self, pixel_ids: np.ndarray) -> TraceResult:
        """Trace the given flat pixel indices and return their colors."""
        backend = _LocalBackend(self)
        tests_before = self.intersector.n_primitive_tests
        try:
            next(trace(self.scene, backend, pixel_ids, self.chunk_size))
        except StopIteration as done:
            result = done.value
        else:
            raise RuntimeError("the local backend suspended the kernel")
        result.mark_voxels, result.mark_pixels, result.marks_by_class = backend.finalize()
        result.n_intersection_tests = self.intersector.n_primitive_tests - tests_before
        return result

    def render(self) -> tuple[Framebuffer, TraceResult]:
        """Trace the full frame into a framebuffer."""
        cam = self.scene.camera
        result = self.trace_pixels(cam.pixel_grid())
        fb = Framebuffer(cam.width, cam.height)
        fb.scatter(result.pixel_ids, result.colors)
        return fb, result
