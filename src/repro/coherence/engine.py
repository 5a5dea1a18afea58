"""The frame-coherence rendering engine (Figure 3 of the paper).

::

    parse the user input parameters
    initialize frame coherence data structures
    for each frame of the animation
        for each pixel that needs to be computed
            for each voxel that a ray associated with this pixel intersects
                add the pixel to the voxel's pixel list
        find the voxels in which change occurs in the next frame
        mark those pixels on the pixel list of the changed voxels
        for recomputation in the next frame

:class:`CoherentRenderer` renders a stationary-camera sequence
incrementally: the first frame is rendered in full with ray-path tracking;
for every following frame the changed voxels are detected, the union of
their pixel lists becomes the recompute set, only those pixels are
re-traced (updating their marks), and every other pixel is copied forward.

The readable rule: a mark is read only when its voxel changes in a later
frame of the range, so frame ``f`` records only the marks in ``R_f``, the
union of the change sets of the transitions after ``f`` (back to the last
full invalidation, which re-traces every pixel and reads no mark).  A frame
whose ``R_f`` is empty — the last one, every frame of a held shot, every
shot of a moving camera — runs no DDA at all.

A ``region`` restricts the renderer to a pixel subset — this is how frame
division workers own an 80x80 block while the algorithm stays unchanged.

Marks live in two voxel->pixel maps: ``primary`` (camera and primary-shadow
segments) and ``secondary`` (everything else); the recompute set is the
union of both lookups.  With ``shadow_coherence`` (the paper's future work,
frame coherence "in the generation of shadows") a dirty pixel only the
secondary map found keeps its hit point, so its cached attenuation toward
every light (:class:`~repro.render.ShadowCache`) is exact and its primary
shadow rays are skipped; it keeps its primary marks too (DESIGN §5.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..accel import UniformGrid
from ..render import Framebuffer, RayStats, RayTracer, ShadowCache
from ..rmath import AABB, union
from ..scene import Animation
from ..telemetry import NULL as NULL_TELEMETRY
from .change_detection import changed_voxels_once
from .voxel_pixel_map import VoxelPixelMap

__all__ = ["CoherentRenderer", "FrameReport", "grid_for_animation", "emit_frame_telemetry"]

_EMPTY = np.empty(0, dtype=np.int64)


def grid_for_animation(animation: Animation, resolution: int | tuple[int, int, int] = 16) -> UniformGrid:
    """A uniform grid whose bounds cover every frame of the animation.

    The voxel lattice must be identical across frames, otherwise voxel ids
    from frame *f* would be meaningless at frame *f+1*.
    """
    box = AABB.empty()
    for _, scene in animation.frames():
        box = union(box, scene.world_bounds())
    return UniformGrid(box, resolution)


@dataclass
class FrameReport:
    """Per-frame accounting of the coherent renderer."""

    frame: int
    n_computed: int
    n_copied: int
    stats: RayStats
    computed_pixels: np.ndarray
    rays_per_pixel: np.ndarray
    n_changed_voxels: int
    wall_time: float
    map_entries: int = 0
    n_intersection_tests: int = 0
    n_shadow_reusable: int = 0
    shadow_rays_saved: int = 0

    @property
    def computed_fraction(self) -> float:
        total = self.n_computed + self.n_copied
        return self.n_computed / total if total else 0.0


def emit_frame_telemetry(telemetry, report: FrameReport) -> None:
    """Emit the canonical ``frame`` event (plus the coherence detail event)
    for one completed frame — the shape is pinned by
    :mod:`repro.telemetry.schema` so real and simulated runs stay
    comparable."""
    if not telemetry.enabled:
        return
    s = report.stats
    telemetry.event(
        "frame",
        frame=report.frame,
        n_computed=report.n_computed,
        n_copied=report.n_copied,
        rays_camera=s.camera,
        rays_reflected=s.reflected,
        rays_refracted=s.refracted,
        rays_shadow=s.shadow,
        rays_total=s.total,
    )
    telemetry.event(
        "coherence.frame",
        frame=report.frame,
        n_changed_voxels=report.n_changed_voxels,
        map_entries=report.map_entries,
        n_intersection_tests=report.n_intersection_tests,
    )
    telemetry.counter("intersect.tests", report.n_intersection_tests)


class CoherentRenderer:
    """Incremental renderer for one stationary-camera sequence.

    Parameters
    ----------
    animation:
        Source of per-frame scenes (object identity via ``prim_id``).
    region:
        Optional flat pixel indices this renderer owns; defaults to the full
        frame.  Pixels outside the region are never touched.
    grid:
        Shared uniform grid; defaults to :func:`grid_for_animation`.
    grid_resolution:
        Used when ``grid`` is omitted.
    first_frame, last_frame:
        Half-open frame range rendered by this instance (sequence division
        gives each worker such a range).  Defaults to the whole animation.
        ``last_frame`` is the horizon: a frame records only the marks a
        later frame of the range reads (see the module docstring).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; each completed frame
        emits the canonical ``frame`` event plus a ``coherence.frame``
        detail event (changed voxels, pixel-list entries, intersection
        tests).  Defaults to the shared disabled instance.
    shadow_coherence:
        Reuse cached primary shadow attenuation for shadow-reusable pixels
        (see the module docstring).
    """

    def __init__(
        self,
        animation: Animation,
        region: np.ndarray | None = None,
        grid: UniformGrid | None = None,
        grid_resolution: int | tuple[int, int, int] = 16,
        chunk_size: int = 32768,
        first_frame: int = 0,
        last_frame: int | None = None,
        telemetry=None,
        shadow_coherence: bool = False,
    ):
        self.animation = animation
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.grid = grid if grid is not None else grid_for_animation(animation, grid_resolution)
        self.chunk_size = int(chunk_size)
        self.first_frame = int(first_frame)
        self.last_frame = animation.n_frames if last_frame is None else int(last_frame)
        if not (0 <= self.first_frame < self.last_frame <= animation.n_frames):
            raise ValueError("invalid frame range")

        cam0 = animation.camera_at(self.first_frame)
        self.width, self.height = cam0.width, cam0.height
        n_pixels = cam0.n_pixels
        if region is None:
            region = np.arange(n_pixels, dtype=np.int64)
        self.region = np.unique(np.asarray(region, dtype=np.int64))
        if self.region.size and (self.region.min() < 0 or self.region.max() >= n_pixels):
            raise ValueError("region pixel index out of range")

        # The sequence state (what a checkpoint saves and restores).
        self.framebuffer = Framebuffer(self.width, self.height)
        self.primary = VoxelPixelMap(self.grid.n_voxels, n_pixels)
        self.secondary = VoxelPixelMap(self.grid.n_voxels, n_pixels)
        self.shadow_cache = None
        if shadow_coherence:
            n_lights = len(animation.scene_at(self.first_frame).lights)
            self.shadow_cache = ShadowCache(n_pixels, n_lights)
        self.reports: list[FrameReport] = []
        self._prev_scene = None
        self._next_frame = self.first_frame
        self._readable_sets: dict[int, np.ndarray | None] | None = None

    @property
    def frames_remaining(self) -> int:
        return self.last_frame - self._next_frame

    # -- the algorithm --------------------------------------------------------
    def predict(self, prev_scene, curr_scene) -> tuple[np.ndarray, np.ndarray, int]:
        """``(dirty, shadow_reusable, n_changed_voxels)`` for prev -> curr,
        within the region (``shadow_reusable`` is empty without
        ``shadow_coherence``)."""
        vox = changed_voxels_once(self.grid, prev_scene, curr_scene, self.animation.n_frames)
        if not vox.size:  # a held frame: nothing to look up
            return _EMPTY, _EMPTY, 0
        if vox.size == self.grid.n_voxels:
            # Full invalidation (light/background edit, moving plane): every
            # pixel of the region must recompute — including pixels whose
            # rays never enter the grid and therefore carry no marks — and
            # no cached attenuation survives (a light may have moved).
            return self.region, _EMPTY, int(vox.size)
        # Only traced pixels, all of them in the region, carry marks.  A
        # pixel found by the secondary map alone reads 1, by the primary 2.
        found = np.zeros(self.primary.n_pixels, dtype=np.int8)
        found[self.secondary.pixels_for_voxels(vox)] = 1
        found[self.primary.pixels_for_voxels(vox)] = 2
        reusable = np.flatnonzero(found == 1) if self.shadow_cache is not None else _EMPTY
        return np.flatnonzero(found), reusable, int(vox.size)

    def _readable(self, frame: int) -> np.ndarray | None:
        """``R_frame``, the voxels whose marks a later frame of the range
        reads, as a boolean mask (``None``: no voxel).

        Built once, from the next frame to render up to the horizon, as
        suffix unions of the memoised change sets; a full invalidation
        re-traces every pixel of the region, so it reads no mark and
        restarts the union.
        """
        if self._readable_sets is None:
            anim, n = self.animation, self.grid.n_voxels
            sets: dict[int, np.ndarray | None] = {self.last_frame - 1: None}
            union = None
            for g in range(self.last_frame - 1, self._next_frame, -1):
                prev, curr = anim.scene_at(g - 1), anim.scene_at(g)
                vox = changed_voxels_once(self.grid, prev, curr, anim.n_frames)
                if vox.size == n:
                    union = None
                elif vox.size:
                    union = np.zeros(n, dtype=bool) if union is None else union.copy()
                    union[vox] = True
                sets[g - 1] = union
            self._readable_sets = sets
        return self._readable_sets[frame]

    def _absorb_marks(self, result, reusable: np.ndarray) -> None:
        """Replace the traced pixels' marks with the ones just recorded.  A
        reusable pixel fired no primary shadow ray, so its old primary marks
        stay (its new camera marks are among them)."""
        marks = result.marks_by_class
        self.secondary.replace_pixel_marks(result.pixel_ids, *marks["secondary"])
        fired = np.setdiff1d(result.pixel_ids, reusable, assume_unique=True)
        (cv, cp), (sv, sp) = marks["camera"], marks["pshadow"]
        self.primary.replace_pixel_marks(fired, np.concatenate([cv, sv]), np.concatenate([cp, sp]))

    def render_next(self) -> FrameReport:
        """Render the next frame of the owned range incrementally."""
        frame = self._next_frame
        if frame >= self.last_frame:
            raise StopIteration("sequence exhausted")
        scene = self.animation.scene_at(frame)
        cam = scene.camera
        if (cam.width, cam.height) != (self.width, self.height):
            raise ValueError("camera resolution changed mid-sequence")
        if self._prev_scene is not None and not cam.same_rays(self._prev_scene.camera):
            raise ValueError(
                "camera moved mid-sequence: frame coherence requires a stationary "
                "camera; split the animation with split_coherent_sequences()"
            )

        t0 = time.perf_counter()
        if self._prev_scene is None:
            to_compute, reusable, n_changed_vox = self.region, _EMPTY, self.grid.n_voxels
        else:
            to_compute, reusable, n_changed_vox = self.predict(self._prev_scene, scene)

        readable = self._readable(frame)
        cache = self.shadow_cache
        saved_before = cache.rays_saved if cache is not None else 0
        if to_compute.size:
            if cache is not None:
                cache.set_reusable(reusable)
            tracer = RayTracer(scene, grid=self.grid, track_paths=readable is not None,
                               chunk_size=self.chunk_size, shadow_cache=cache,
                               readable=readable)
            result = tracer.trace_pixels(to_compute)
            self.framebuffer.scatter(result.pixel_ids, result.colors)
            if readable is not None:
                self._absorb_marks(result, reusable)
            stats = result.stats
            rays_pp = result.rays_per_pixel
            computed = result.pixel_ids
            n_tests = result.n_intersection_tests
        else:
            stats = RayStats()
            rays_pp = _EMPTY
            computed = _EMPTY
            n_tests = 0

        report = FrameReport(
            frame=frame,
            n_computed=int(computed.size),
            n_copied=int(self.region.size - computed.size),
            stats=stats,
            computed_pixels=computed,
            rays_per_pixel=rays_pp,
            n_changed_voxels=n_changed_vox,
            wall_time=time.perf_counter() - t0,
            map_entries=self.primary.n_entries + self.secondary.n_entries,
            n_intersection_tests=n_tests,
            n_shadow_reusable=int(reusable.size),
            shadow_rays_saved=cache.rays_saved - saved_before if cache is not None else 0,
        )
        self.reports.append(report)
        self._prev_scene = scene
        self._next_frame = frame + 1
        emit_frame_telemetry(self.telemetry, report)
        if cache is not None and self.telemetry.enabled:
            self.telemetry.event(
                "shadow.frame",
                frame=frame,
                n_shadow_reusable=report.n_shadow_reusable,
                shadow_rays_saved=report.shadow_rays_saved,
            )
            self.telemetry.counter("shadowcache.rays_saved", report.shadow_rays_saved)
        return report

    def run(self) -> list[FrameReport]:
        """Render every remaining frame of the owned range."""
        while self.frames_remaining:
            self.render_next()
        return self.reports

    def frame_image(self) -> np.ndarray:
        """Current framebuffer as ``(H, W, 3)`` float."""
        return self.framebuffer.as_image()
