"""The rendering model: partitioning, measured cost oracle, run outcome.

A leaf package — it imports nothing from :mod:`repro.sched`, which builds
the scheduling policies and the simulator on top of it.
"""

from .config import RenderFarmConfig
from .oracle import AnimationCostOracle, build_oracle
from .outcome import SimulationOutcome, format_hms, load_imbalance
from .partition import (
    PixelRegion,
    block_regions,
    default_block_layout,
    pixel_regions,
    region_grid_shape,
    sequence_ranges,
)

__all__ = [
    "AnimationCostOracle",
    "PixelRegion",
    "RenderFarmConfig",
    "SimulationOutcome",
    "block_regions",
    "build_oracle",
    "default_block_layout",
    "format_hms",
    "load_imbalance",
    "pixel_regions",
    "region_grid_shape",
    "sequence_ranges",
]
