"""High-level rendering pipeline: whole animations, including camera cuts.

The coherence algorithm "works only for sequences in which the camera is
stationary; any camera movement logically separates one sequence from
another.  These shorter sequences represent the computational tasks for
which parallelization and frame coherence will be exploited."

:func:`_render_animation` is that sentence as code: it splits the animation
at camera cuts (:func:`repro.scene.split_coherent_sequences`), renders each
run with a fresh coherent (or shadow-coherent) renderer, and returns the
assembled frames with merged statistics.

This module is the *animation engine* behind the unified
:func:`repro.api.render` facade — use the facade; the long-deprecated
``render_animation`` entry point has been removed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coherence import CoherentRenderer, FrameReport, ShadowCoherentRenderer, grid_for_animation
from .render import RayStats
from .scene import Animation, split_coherent_sequences
from .telemetry import NULL as NULL_TELEMETRY
from .telemetry import RunFold

__all__ = ["AnimationRender"]


@dataclass
class AnimationRender:
    """Assembled output of the animation engine."""

    frames: np.ndarray  # (n_frames, H, W, 3) float64
    stats: RayStats
    reports: list[FrameReport]
    sequences: list[tuple[int, int]]
    shadow_rays_saved: int = 0
    per_sequence_stats: list[RayStats] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def total_computed_pixels(self) -> int:
        return sum(r.n_computed for r in self.reports)

    def total_copied_pixels(self) -> int:
        return sum(r.n_copied for r in self.reports)


def _render_animation(
    animation: Animation,
    grid_resolution: int | tuple[int, int, int] = 24,
    shadow_coherence: bool = False,
    samples_per_axis: int = 1,
    chunk_size: int = 32768,
    on_frame: Callable[[int, FrameReport, np.ndarray], None] | None = None,
    telemetry=None,
    workload: str = "animation",
) -> AnimationRender:
    """Render every frame of ``animation`` with frame coherence.

    Camera cuts are handled by splitting into stationary-camera runs; the
    first frame of each run is rendered in full.

    Parameters
    ----------
    shadow_coherence:
        Use the :class:`ShadowCoherentRenderer` extension (requires
        ``samples_per_axis == 1``).
    on_frame:
        Optional callback ``(frame_index, report, image)`` invoked as each
        frame completes (for progress display or streaming output).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; the engine emits the
        full core event set (run.start, one ``task`` span per coherent
        sequence, per-frame events via the renderers, worker, run.end) so a
        single-process render is report-compatible with a farm run.
    workload:
        Label stamped into the ``run.start`` event.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY

    cam0 = animation.camera_at(0)
    frames = np.empty((animation.n_frames, cam0.height, cam0.width, 3), dtype=np.float64)
    reports: list[FrameReport] = []
    sequences = split_coherent_sequences(animation)
    grid = grid_for_animation(animation, grid_resolution)  # one lattice for every shot
    shadow_saved = 0
    per_seq: list[RayStats] = []
    mode = "shadow-coherent" if shadow_coherence else "coherent"

    t_run0 = time.perf_counter()
    fold = RunFold()  # the run's own accounting, read back for worker / run.end
    if tel.enabled:
        tel.sinks.append(fold)
    tel.event(
        "run.start",
        engine="animation",
        workload=workload,
        n_frames=int(animation.n_frames),
        width=int(cam0.width),
        height=int(cam0.height),
        n_workers=1,
        mode=mode,
    )

    try:
        for start, stop in sequences:
            cam = animation.camera_at(start)
            if (cam.width, cam.height) != (cam0.width, cam0.height):
                raise ValueError("all shots must share one resolution")
            tel.event("sequence", first_frame=int(start), last_frame=int(stop))
            renderer = (ShadowCoherentRenderer if shadow_coherence else CoherentRenderer)(
                animation,
                grid=grid,
                samples_per_axis=samples_per_axis,
                chunk_size=chunk_size,
                first_frame=start,
                last_frame=stop,
                telemetry=tel,
            )
            with tel.span(
                "task",
                worker="local",
                mode=mode,
                frame0=int(start),
                frame1=int(stop),
                region=int(cam0.n_pixels),
                rays=0,
                n_computed=0,
                attempt=0,
            ) as sp:
                seq_reports: list[FrameReport] = []
                for f in range(start, stop):
                    report = renderer.render_next()
                    image = renderer.frame_image()
                    frames[f] = image
                    reports.append(report)
                    seq_reports.append(report)
                    if on_frame is not None:
                        on_frame(f, report, image)
                seq_stats = RayStats.merge(r.stats for r in seq_reports)
                sp.attrs["rays"] = seq_stats.total
                sp.attrs["n_computed"] = sum(r.n_computed for r in seq_reports)
            per_seq.append(seq_stats)
            if shadow_coherence:
                shadow_saved += renderer.total_shadow_rays_saved
    finally:
        if tel.enabled:
            tel.sinks.remove(fold)

    stats = RayStats.merge(per_seq)
    wall = time.perf_counter() - t_run0
    if tel.enabled:
        for row in fold.worker_rows(wall):
            tel.event("worker", **row)
        computed, copied = fold.pixel_totals()
        tel.event(
            "run.end",
            wall_time=wall,
            computed_pixels=computed,
            copied_pixels=copied,
            n_tasks=len(sequences),
            n_workers=1,
            rays_camera=stats.camera,
            rays_reflected=stats.reflected,
            rays_refracted=stats.refracted,
            rays_shadow=stats.shadow,
            rays_total=stats.total,
        )

    return AnimationRender(
        frames=frames,
        stats=stats,
        reports=reports,
        sequences=sequences,
        shadow_rays_saved=shadow_saved,
        per_sequence_stats=per_seq,
    )
