"""Simulation outcomes: the quantities Table 1 reports, per strategy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SimulationOutcome", "format_hms", "load_imbalance"]


def format_hms(seconds: float) -> str:
    """Seconds -> ``h:mm:ss`` (the paper reports times this way)."""
    if seconds < 0:
        raise ValueError("negative duration")
    total = int(round(seconds))
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


def load_imbalance(busy_seconds: dict[str, float]) -> float:
    """max/mean busy-time ratio across workers (1.0 = perfectly balanced)."""
    vals = np.asarray(list(busy_seconds.values()), dtype=np.float64)
    if vals.size == 0 or vals.mean() == 0:
        return 1.0
    return float(vals.max() / vals.mean())


@dataclass
class SimulationOutcome:
    """Everything measured from one simulated rendering run."""

    strategy: str
    n_frames: int
    total_time: float
    first_frame_time: float | None
    frame_completion_times: dict[int, float]
    total_rays: int
    total_units: float
    machine_busy_seconds: dict[str, float] = field(default_factory=dict)
    ethernet_busy_seconds: float = 0.0
    n_messages: int = 0
    bytes_on_wire: int = 0
    n_chain_starts: int = 0
    n_steals: int = 0
    #: The master's recovery counts (:class:`repro.runtime.options.RecoveryCounts`:
    #: retries, timeouts, ...), the keys a real farm's ``RenderResult.recovery`` has.
    recovery: dict = field(default_factory=dict)
    #: Text Gantt chart of the run (populated when the strategy was called
    #: with ``trace=True``); see repro.cluster.render_timeline.
    timeline: str | None = None

    @property
    def avg_frame_time(self) -> float:
        return self.total_time / self.n_frames if self.n_frames else 0.0

    def speedup_vs(self, baseline: "SimulationOutcome") -> float:
        """Wall-clock speedup relative to a baseline run (Table 1's ratio columns)."""
        if self.total_time <= 0:
            raise ValueError("degenerate run time")
        return baseline.total_time / self.total_time

    @property
    def load_imbalance(self) -> float:
        return load_imbalance(self.machine_busy_seconds)

    def summary(self) -> dict[str, object]:
        return {
            "strategy": self.strategy,
            "total_time": format_hms(self.total_time),
            "total_seconds": round(self.total_time, 2),
            "avg_frame": format_hms(self.avg_frame_time),
            "first_frame": format_hms(self.first_frame_time)
            if self.first_frame_time is not None
            else "-",
            "rays": self.total_rays,
            "messages": self.n_messages,
            "chain_starts": self.n_chain_starts,
            "steals": self.n_steals,
            "imbalance": round(self.load_imbalance, 3),
        }
