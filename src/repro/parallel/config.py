"""Render-farm modelling parameters and calibration constants.

Everything the cluster simulation needs beyond measured ray counts lives
here, with defaults calibrated against Table 1's single-processor columns:

* ``fc_overhead`` — fractional extra work per ray for DDA path marking and
  pixel-list maintenance.  The paper reports the frame-coherence overhead as
  "a reasonable 12% of the total generation time" on the first frame.
* ``fc_mem_bytes_per_pixel`` — resident bytes of coherence state per owned
  pixel (dominated by the voxel pixel lists).  At the paper's 320x240 this
  puts a full-frame chain slightly above the 64 MB of the fastest machine
  and far above the 32 MB machines — the paper's "increased aggregate
  memory of multiple machines" argument for why distributed FC runs beat
  the multiplicative expectation.
* message sizes — a worker returns only the pixels it computed (color +
  pixel index), the master writes whole 24-bit Targa frames.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RenderFarmConfig"]


@dataclass(frozen=True)
class RenderFarmConfig:
    """Knobs of the NOW render-farm model (see module docstring)."""

    # --- work model -------------------------------------------------------
    fc_overhead: float = 0.12
    frame_fixed_units: float = 0.0
    chain_start_fixed_units: float = 0.0
    #: Per-frame coherence maintenance cost, in work units per owned pixel
    #: (pixel-list deletion/insertion, change detection, framebuffer
    #: carry-over).  Charged on every coherent step over a region, per
    #: oracle pixel like the rays (``pixel_scale`` sizes memory and messages).
    #: 0.3 puts column (3) on the paper's 2.93x; this repo's renderer fits 0.3-0.56.
    fc_frame_units_per_pixel: float = 0.3

    # --- message model -------------------------------------------------------
    bytes_per_result_pixel: int = 7  # 3 bytes color + 4 bytes pixel index
    msg_overhead_bytes: int = 128
    request_bytes: int = 64

    # --- memory model ----------------------------------------------------------
    fc_mem_base_mb: float = 8.0
    fc_mem_bytes_per_pixel: float = 850.0
    nofc_mem_base_mb: float = 6.0
    nofc_mem_bytes_per_pixel: float = 60.0

    # --- output model -----------------------------------------------------------
    write_frames: bool = True

    # --- adaptive subdivision ------------------------------------------------
    min_steal_frames: int = 2

    # --- resolution scaling ------------------------------------------------------
    #: Multiplier applied to pixel counts in the memory and message models.
    #: When the cost oracle was measured at a reduced resolution, setting
    #: this to (paper_pixels / oracle_pixels) makes working sets and result
    #: messages the size they would be at the paper's 320x240.
    pixel_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.fc_overhead < 0:
            raise ValueError("fc_overhead must be >= 0")
        if self.min_steal_frames < 1:
            raise ValueError("min_steal_frames must be >= 1")
        if self.pixel_scale <= 0:
            raise ValueError("pixel_scale must be positive")
        for name in (
            "frame_fixed_units",
            "chain_start_fixed_units",
            "fc_mem_base_mb",
            "fc_mem_bytes_per_pixel",
            "nofc_mem_base_mb",
            "nofc_mem_bytes_per_pixel",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    # --- derived quantities -----------------------------------------------
    def fc_working_set_mb(self, n_pixels: int) -> float:
        """Resident size of a frame-coherence chain over ``n_pixels``."""
        eff = n_pixels * self.pixel_scale
        return self.fc_mem_base_mb + eff * self.fc_mem_bytes_per_pixel / 1e6

    def nofc_working_set_mb(self, n_pixels: int) -> float:
        """Resident size of a plain render of ``n_pixels``."""
        eff = n_pixels * self.pixel_scale
        return self.nofc_mem_base_mb + eff * self.nofc_mem_bytes_per_pixel / 1e6

    def result_bytes(self, n_pixels_computed: int) -> int:
        eff = int(round(n_pixels_computed * self.pixel_scale))
        return self.msg_overhead_bytes + eff * self.bytes_per_result_pixel

    def task_units(
        self,
        rays: int,
        coherent_bookkeeping: bool,
        chain_start: bool = False,
        region_pixels: int = 0,
    ) -> float:
        """Work units charged for a task that traces ``rays`` rays over a
        region of ``region_pixels`` owned pixels."""
        units = float(rays)
        if coherent_bookkeeping:
            units *= 1.0 + self.fc_overhead
            units += self.fc_frame_units_per_pixel * region_pixels
            if chain_start:
                units += self.chain_start_fixed_units
        units += self.frame_fixed_units
        return units
