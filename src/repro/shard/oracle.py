"""ShardOracle: price object-space assignments for the cluster simulator.

The discrete-event simulator (:class:`~repro.sched.sim.SimTransport`)
prices every assignment through an
:class:`~repro.sched.cost.OracleCostModel`.  This module subclasses it
for the *object-space* policy, where a "region" is a scene shard and the
dominant network term is not the pixel reply but the **ray exchange**:
every wavefront round ships ray batches to the shard owners and their
answers back.

A :class:`ShardProfile` is measured from a real sharded trace
(:class:`~repro.shard.engine.ShardTraceStats`) at a small shard count and
extrapolated to the sweep's 100-1000 workers: total ray work is constant,
but the routing *fan-out* (how many owners each ray visits) grows as
domains shrink.  We model fan-out as ``1 + (q0 - 1) * sqrt(K / K0)``
(clamped to K), the surface-to-volume scaling of box overlap for a
median-split — documented here because BENCH_shard.json depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.config import RenderFarmConfig
from ..sched.cost import FrameCost, OracleCostModel
from .engine import ShardTraceStats

__all__ = ["ShardOracle", "ShardProfile"]


@dataclass(frozen=True)
class ShardProfile:
    """Measured per-frame ray-exchange behaviour of a sharded trace.

    Attributes
    ----------
    n_shards:
        Shard count the profile was measured at.
    n_frames:
        Frames profiled.
    n_pixels:
        Frame resolution (pixels).
    rays_routed:
        ``(F,)`` total rays *received* across all shards per frame (each
        ray counted once per owner that served it).
    rays_traced:
        ``(F,)`` distinct rays fired per frame (the serial tracer's
        count; fan-out = rays_routed / rays_traced).
    xfer_bytes:
        ``(F,)`` request+reply payload bytes per frame.
    """

    n_shards: int
    n_frames: int
    n_pixels: int
    rays_routed: tuple[int, ...]
    rays_traced: tuple[int, ...]
    xfer_bytes: tuple[int, ...]

    @classmethod
    def from_stats(
        cls,
        per_frame: list[tuple[ShardTraceStats, int]],
        n_pixels: int,
    ) -> "ShardProfile":
        """Build from per-frame ``(shard_stats, rays_traced)`` pairs."""
        if not per_frame:
            raise ValueError("need at least one profiled frame")
        k = per_frame[0][0].n_shards
        return cls(
            n_shards=k,
            n_frames=len(per_frame),
            n_pixels=int(n_pixels),
            rays_routed=tuple(int(st.rays_recv.sum()) for st, _ in per_frame),
            rays_traced=tuple(int(r) for _, r in per_frame),
            xfer_bytes=tuple(int(st.total_ray_bytes) for st, _ in per_frame),
        )

    def fanout(self) -> float:
        """Average owners visited per ray at the measured shard count."""
        routed = sum(self.rays_routed)
        traced = max(1, sum(self.rays_traced))
        return routed / traced

    def bytes_per_routed_ray(self) -> float:
        routed = max(1, sum(self.rays_routed))
        return sum(self.xfer_bytes) / routed


class ShardOracle(OracleCostModel):
    """Cost model for object-space assignments.

    An assignment's region index is a *shard*; its cost for frame ``f``
    is that shard's slice of the routed-ray work at the target shard
    count, and its reply bytes include the shard's share of the ray
    exchange — which is what lets the simulator's shared-Ethernet model
    answer the saturation question.
    """

    def __init__(
        self,
        profile: ShardProfile,
        n_shards: int | None = None,
        cfg: RenderFarmConfig | None = None,
    ) -> None:
        super().__init__(None, cfg)  # priced from the profile, not a pixel oracle
        self.profile = profile
        self.n_shards = int(n_shards) if n_shards is not None else profile.n_shards
        if self.n_shards < 1:
            raise ValueError("need at least one shard")
        q0 = profile.fanout()
        scale = np.sqrt(self.n_shards / max(1, profile.n_shards))
        self.fanout = float(min(self.n_shards, 1.0 + (q0 - 1.0) * scale))
        self._bytes_per_ray = profile.bytes_per_routed_ray()

    def region_size(self, region_index: int) -> int:
        return max(1, self.profile.n_pixels // self.n_shards)

    def frame_cost(
        self, region_index: int, frame: int, *, coherent: bool, chain_start: bool
    ) -> FrameCost:
        f = frame % self.profile.n_frames  # profiles tile over longer runs
        routed = self.profile.rays_traced[f] * self.fanout
        rays = max(1, int(round(routed / self.n_shards)))
        size = self.region_size(region_index)
        return FrameCost(
            frame=frame,
            rays=rays,
            n_computed=size,
            units=float(self.cfg.task_units(rays, False)),
            ws_mb=float(self.cfg.nofc_working_set_mb(size)),
            chain_start=False,
        )

    def reply_bytes(self, n_computed: int, rays: int) -> int:
        return super().reply_bytes(n_computed, rays) + int(round(rays * self._bytes_per_ray))

    def ray_bytes_of_log(self, log) -> int:
        """Modelled ray-exchange bytes of a dispatch log (BENCH metric)."""
        return int(round(self.total_rays_of_log(log) * self._bytes_per_ray))
