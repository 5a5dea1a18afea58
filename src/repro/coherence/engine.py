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
The last frame of the range records no marks, since no later frame reads
them: a one-frame range — every shot of a moving camera — runs no DDA.

A ``region`` restricts the renderer to a pixel subset — this is how frame
division workers own an 80x80 block while the algorithm stays unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..accel import UniformGrid
from ..render import Framebuffer, RayStats, RayTracer
from ..rmath import AABB, union
from ..scene import Animation
from ..telemetry import NULL as NULL_TELEMETRY
from .change_detection import changed_voxels
from .voxel_pixel_map import VoxelPixelMap

__all__ = ["CoherentRenderer", "FrameReport", "grid_for_animation", "emit_frame_telemetry"]


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
    samples_per_axis:
        Supersampling factor forwarded to the tracer.
    first_frame, last_frame:
        Half-open frame range rendered by this instance (sequence division
        gives each worker such a range).  Defaults to the whole animation.
        ``last_frame`` is the horizon: frame ``last_frame - 1`` records no marks.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; each completed frame
        emits the canonical ``frame`` event plus a ``coherence.frame``
        detail event (changed voxels, pixel-list entries, intersection
        tests).  Defaults to the shared disabled instance.
    """

    def __init__(
        self,
        animation: Animation,
        region: np.ndarray | None = None,
        grid: UniformGrid | None = None,
        grid_resolution: int | tuple[int, int, int] = 16,
        samples_per_axis: int = 1,
        chunk_size: int = 32768,
        first_frame: int = 0,
        last_frame: int | None = None,
        telemetry=None,
    ):
        self.animation = animation
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.grid = grid if grid is not None else grid_for_animation(animation, grid_resolution)
        self.samples_per_axis = int(samples_per_axis)
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
        self.pixel_map = VoxelPixelMap(self.grid.n_voxels, n_pixels)
        self.reports: list[FrameReport] = []
        self._prev_scene = None
        self._next_frame = self.first_frame

    @property
    def frames_remaining(self) -> int:
        return self.last_frame - self._next_frame

    # -- the algorithm --------------------------------------------------------
    def predict_dirty_pixels(self, prev_scene, curr_scene) -> tuple[np.ndarray, int]:
        """Recompute set for the transition prev -> curr, within the region."""
        vox = changed_voxels(self.grid, prev_scene, curr_scene)
        if vox.size == self.grid.n_voxels:
            # Full invalidation (light/background edit, moving plane): every
            # pixel of the region must recompute — including pixels whose
            # rays never enter the grid and therefore carry no marks.
            return self.region, int(vox.size)
        # Only traced pixels, all of them in the region, carry marks.
        return self.pixel_map.pixels_for_voxels(vox), int(vox.size)

    # -- what a subclass with other bookkeeping replaces --------------------
    def _tracer(self, scene, track_paths: bool) -> RayTracer:
        """The tracer for one frame's recompute set."""
        return RayTracer(scene, grid=self.grid, track_paths=track_paths, chunk_size=self.chunk_size)

    def _absorb_marks(self, result) -> None:
        """Replace the traced pixels' marks with the ones just recorded."""
        self.pixel_map.replace_pixel_marks(result.pixel_ids, result.mark_voxels, result.mark_pixels)

    def _report(self, **fields) -> FrameReport:
        return FrameReport(map_entries=self.pixel_map.n_entries, **fields)

    def render_next(self) -> FrameReport:
        """Render the next frame of the owned range incrementally."""
        frame = self._next_frame
        if frame >= self.last_frame:
            raise StopIteration("sequence exhausted")
        scene = self.animation.scene_at(frame)
        cam = scene.camera
        if (cam.width, cam.height) != (self.width, self.height):
            raise ValueError("camera resolution changed mid-sequence")
        if self._prev_scene is not None and not np.allclose(
            cam.position, self._prev_scene.camera.position
        ):
            raise ValueError(
                "camera moved mid-sequence: frame coherence requires a stationary "
                "camera; split the animation with split_coherent_sequences()"
            )

        t0 = time.perf_counter()
        if self._prev_scene is None:
            to_compute = self.region
            n_changed_vox = self.grid.n_voxels
        else:
            to_compute, n_changed_vox = self.predict_dirty_pixels(self._prev_scene, scene)

        # The horizon rule: a mark is only ever read by a later frame of
        # this range, so the last frame records none.
        track_paths = frame + 1 < self.last_frame
        if to_compute.size:
            tracer = self._tracer(scene, track_paths)
            result = tracer.trace_pixels(to_compute, samples_per_axis=self.samples_per_axis)
            self.framebuffer.scatter(result.pixel_ids, result.colors)
            if track_paths:
                self._absorb_marks(result)
            stats = result.stats
            rays_pp = result.rays_per_pixel
            computed = result.pixel_ids
            n_tests = result.n_intersection_tests
        else:
            stats = RayStats()
            rays_pp = np.empty(0, dtype=np.int64)
            computed = np.empty(0, dtype=np.int64)
            n_tests = 0

        report = self._report(
            frame=frame,
            n_computed=int(computed.size),
            n_copied=int(self.region.size - computed.size),
            stats=stats,
            computed_pixels=computed,
            rays_per_pixel=rays_pp,
            n_changed_voxels=n_changed_vox,
            wall_time=time.perf_counter() - t0,
            n_intersection_tests=n_tests,
        )
        self.reports.append(report)
        self._prev_scene = scene
        self._next_frame = frame + 1
        emit_frame_telemetry(self.telemetry, report)
        return report

    def run(self) -> list[FrameReport]:
        """Render every remaining frame of the owned range."""
        while self.frames_remaining:
            self.render_next()
        return self.reports

    def frame_image(self) -> np.ndarray:
        """Current framebuffer as ``(H, W, 3)`` float."""
        return self.framebuffer.as_image()
