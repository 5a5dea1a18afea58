"""Frame coherence for shadow generation (the paper's extension).

"Second, we are also exploring the use of frame coherence in the
generation of shadows." / future work: "development of frame coherence
algorithms with shadow generation".

:class:`ShadowCoherentRenderer` subclasses the base incremental renderer and
adds primary-shadow reuse.  It keeps *three* voxel->pixel maps instead of one,
segregated by ray class (camera segments, primary shadow segments, and all
secondary paths), and a per-(pixel, light) attenuation cache:

* a pixel is **dirty** when changed voxels intersect *any* of its marks
  (exactly the base algorithm);
* a dirty pixel is additionally **shadow-reusable** when neither its
  camera segment nor its primary shadow segments crossed a changed voxel —
  it is dirty purely through reflection/refraction paths.  Its primary hit
  point is provably unchanged, so the cached shadow attenuation toward
  every light is still exact and those shadow rays are skipped.

On the Newton workload this triggers constantly: pixels on *static* chrome
marbles that mirror the swinging end marble are dirty (their reflected
path crosses the moving region) but keep their own hit point and shadows.

Images remain bit-identical to full re-rendering; only the number of
shadow rays drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..render import RayTracer, ShadowCache
from ..scene import Animation
from .change_detection import changed_voxels_once
from .engine import CoherentRenderer, FrameReport
from .voxel_pixel_map import VoxelPixelMap

__all__ = ["ShadowCoherentRenderer", "ShadowFrameReport"]


@dataclass
class ShadowFrameReport(FrameReport):
    """FrameReport plus shadow-reuse accounting."""

    n_shadow_reusable: int = 0
    shadow_rays_saved: int = 0


class ShadowCoherentRenderer(CoherentRenderer):
    """Incremental renderer with primary-shadow coherence.

    A :class:`~repro.coherence.CoherentRenderer` (same parameters) whose
    single voxel->pixel map is replaced by three class-segregated ones; see
    the module docstring for the algorithm.
    """

    def __init__(self, animation: Animation, **kwargs):
        super().__init__(animation, **kwargs)
        n_voxels, n_pixels = self.grid.n_voxels, self.width * self.height
        self.pixel_map = None  # replaced by the three class maps
        self.map_camera = VoxelPixelMap(n_voxels, n_pixels)
        self.map_pshadow = VoxelPixelMap(n_voxels, n_pixels)
        self.map_secondary = VoxelPixelMap(n_voxels, n_pixels)
        n_lights = len(animation.scene_at(self.first_frame).lights)
        self.shadow_cache = ShadowCache(n_pixels, n_lights)
        self._reusable = np.empty(0, dtype=np.int64)  # of the frame being rendered

    # -- prediction ------------------------------------------------------------
    def predict(self, prev_scene, curr_scene) -> tuple[np.ndarray, np.ndarray, int]:
        """(dirty, shadow_reusable, n_changed_voxels) for prev -> curr."""
        vox = changed_voxels_once(self.grid, prev_scene, curr_scene, self.animation.n_frames)
        if vox.size == self.grid.n_voxels:
            # Full invalidation: everything recomputes, nothing is reusable
            # (a light may have moved, so cached attenuations are dead).
            return self.region, np.empty(0, dtype=np.int64), int(vox.size)
        primary_dirty = np.union1d(
            self.map_camera.pixels_for_voxels(vox),
            self.map_pshadow.pixels_for_voxels(vox),
        )
        dirty = np.union1d(primary_dirty, self.map_secondary.pixels_for_voxels(vox))
        reusable = np.setdiff1d(dirty, primary_dirty, assume_unique=True)
        return dirty, reusable, int(vox.size)

    def predict_dirty_pixels(self, prev_scene, curr_scene) -> tuple[np.ndarray, int]:
        dirty, self._reusable, n_changed = self.predict(prev_scene, curr_scene)
        return dirty, n_changed

    # -- the base renderer's per-frame hooks ---------------------------------------
    def _tracer(self, scene, readable: np.ndarray | None) -> RayTracer:
        self.shadow_cache.set_reusable(self._reusable)
        return RayTracer(scene, grid=self.grid, track_paths=readable is not None,
                         chunk_size=self.chunk_size, shadow_cache=self.shadow_cache,
                         readable=readable)

    def _absorb_marks(self, result) -> None:
        marks = result.marks_by_class
        self.map_camera.replace_pixel_marks(result.pixel_ids, *marks["camera"])
        self.map_secondary.replace_pixel_marks(result.pixel_ids, *marks["secondary"])
        # Primary-shadow marks: pixels that reused the cache did not
        # re-fire their shadow rays — their old marks are still the
        # truth and must survive; only re-fired pixels are replaced.
        fired = np.setdiff1d(result.pixel_ids, self._reusable, assume_unique=True)
        self.map_pshadow.replace_pixel_marks(fired, *marks["pshadow"])

    def _report(self, **fields) -> ShadowFrameReport:
        maps = (self.map_camera, self.map_pshadow, self.map_secondary)
        return ShadowFrameReport(
            map_entries=sum(m.n_entries for m in maps),
            n_shadow_reusable=int(self._reusable.size),
            **fields,
        )

    def render_next(self) -> ShadowFrameReport:
        saved_before = self.shadow_cache.rays_saved
        report = super().render_next()
        report.shadow_rays_saved = self.shadow_cache.rays_saved - saved_before
        if self.telemetry.enabled:
            self.telemetry.event(
                "shadow.frame",
                frame=report.frame,
                n_shadow_reusable=report.n_shadow_reusable,
                shadow_rays_saved=report.shadow_rays_saved,
            )
            self.telemetry.counter("shadowcache.rays_saved", report.shadow_rays_saved)
        return report

    @property
    def total_shadow_rays_saved(self) -> int:
        return self.shadow_cache.rays_saved
