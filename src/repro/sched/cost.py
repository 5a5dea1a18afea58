"""Price an :class:`~repro.sched.core.Assignment` against a measured oracle.

Policies know nothing about pixels or rays; this module is where an
abstract (region, frame-range) unit is turned into the numbers the
simulator computes with — ray counts, work units, working-set megabytes
and result-message bytes — from the measured
:class:`~repro.parallel.oracle.AnimationCostOracle` and the
:class:`~repro.parallel.config.RenderFarmConfig` machine model.  The
equivalence test also uses it to total the modelled rays of a dispatch
log, which is how "identical ray counts on both transports" is checked
without rendering anything twice.  :class:`~repro.shard.ShardOracle`
subclasses it to price object-space assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.config import RenderFarmConfig
from ..parallel.oracle import AnimationCostOracle
from ..parallel.partition import PixelRegion
from .core import Assignment

__all__ = ["FrameCost", "AssignmentCost", "OracleCostModel"]


@dataclass(frozen=True)
class FrameCost:
    """The modelled cost of one frame-step of an assignment."""

    frame: int
    rays: int
    n_computed: int
    units: float
    ws_mb: float
    chain_start: bool


@dataclass(frozen=True)
class AssignmentCost:
    """Aggregate cost of a whole assignment (one or more frame-steps)."""

    rays: int
    n_computed: int
    units: float
    ws_mb: float
    reply_bytes: int
    per_frame: tuple[FrameCost, ...]


class OracleCostModel:
    """Maps assignments onto the oracle's measured per-pixel ray costs.

    ``regions`` is the block list the policy's region indices refer to;
    region index ``-1`` (or a ``None`` region list) means the whole frame.
    A subclass that prices from something other than a pixel oracle
    (``oracle=None``) overrides ``region_size`` and ``frame_cost``.
    """

    def __init__(
        self,
        oracle: AnimationCostOracle | None,
        cfg: RenderFarmConfig | None = None,
        regions: list[PixelRegion] | None = None,
    ) -> None:
        self.oracle = oracle
        self.cfg = cfg or RenderFarmConfig()
        self.regions = regions
        self._pixels = [r.pixels for r in regions] if regions is not None else None

    def region_pixels(self, region_index: int) -> np.ndarray | None:
        if self._pixels is None or region_index < 0:
            return None
        return self._pixels[region_index]

    def region_size(self, region_index: int) -> int:
        if self.regions is None or region_index < 0:
            return self.oracle.n_pixels
        return self.regions[region_index].n_pixels

    def frame_cost(
        self, region_index: int, frame: int, *, coherent: bool, chain_start: bool
    ) -> FrameCost:
        reg = self.region_pixels(region_index)
        size = self.region_size(region_index)
        if coherent:
            if chain_start:
                rays, n_computed = self.oracle.full_rays(frame, reg), size
            else:
                rays, n_computed = self.oracle.coherent_rays(frame, reg)
            units = self.cfg.task_units(rays, True, chain_start=chain_start, region_pixels=size)
            ws = self.cfg.fc_working_set_mb(size)
        else:
            rays, n_computed = self.oracle.full_rays(frame, reg), size
            units = self.cfg.task_units(rays, False)
            ws = self.cfg.nofc_working_set_mb(size)
        return FrameCost(
            frame=frame,
            rays=int(rays),
            n_computed=int(n_computed),
            units=float(units),
            ws_mb=float(ws),
            chain_start=bool(coherent and chain_start),
        )

    def assignment_cost(self, a: Assignment) -> AssignmentCost:
        """Total cost: frame0 fresh per ``a.fresh``, later frames coherent
        when the policy uses coherence (they continue the chain inside the
        same assignment)."""
        steps = tuple(
            self.frame_cost(
                a.region_index,
                f,
                coherent=a.coherent,
                chain_start=(f == a.frame0 and a.fresh),
            )
            for f in range(a.frame0, a.frame1)
        )
        rays = sum(s.rays for s in steps)
        n_computed = sum(s.n_computed for s in steps)
        units = sum(s.units for s in steps)
        ws = max((s.ws_mb for s in steps), default=0.0)
        return AssignmentCost(
            rays=int(rays),
            n_computed=int(n_computed),
            units=float(units),
            ws_mb=float(ws),
            reply_bytes=self.reply_bytes(n_computed, rays),
            per_frame=steps,
        )

    def reply_bytes(self, n_computed: int, rays: int) -> int:
        """Size of the result message for ``n_computed`` pixels."""
        return self.cfg.result_bytes(max(n_computed, 1))

    def total_rays_of_log(self, log) -> int:
        """Modelled ray total of a dispatch log — the cross-transport
        equivalence metric."""
        return sum(self.assignment_cost(a).rays for a in log)
