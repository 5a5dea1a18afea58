"""Ray statistics.

Table 1's first row is the *total number of rays produced* for the whole
animation under each rendering strategy — it is the paper's hardware-
independent measure of work (the frame coherence algorithm "decreased [it]
by a factor of 5").  The tracer counts every ray it fires, by kind, and the
cost oracle additionally tracks rays per pixel so partitioning strategies
can be replayed in the cluster simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import RayKind

__all__ = ["RayStats"]


@dataclass
class RayStats:
    """Counts of rays fired, by kind; addable and mergeable."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros(len(RayKind), dtype=np.int64))

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64).reshape(len(RayKind))

    def record(self, kind: RayKind, n: int) -> None:
        self.counts[int(kind)] += int(n)

    @property
    def camera(self) -> int:
        return int(self.counts[RayKind.CAMERA])

    @property
    def reflected(self) -> int:
        return int(self.counts[RayKind.REFLECTED])

    @property
    def refracted(self) -> int:
        return int(self.counts[RayKind.REFRACTED])

    @property
    def shadow(self) -> int:
        return int(self.counts[RayKind.SHADOW])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: "RayStats") -> "RayStats":
        return RayStats(self.counts + other.counts)

    def __iadd__(self, other: "RayStats") -> "RayStats":
        self.counts += other.counts
        return self

    @classmethod
    def merge(cls, items) -> "RayStats":
        """Sum an iterable of :class:`RayStats` and/or raw count arrays.

        The single aggregation path for every consumer that collects
        per-task or per-frame counts (real farm, simulators) —
        hand-rolled ``+=`` loops over heterogeneous shapes drift; this
        doesn't.
        """
        total = cls()
        for item in items:
            counts = item.counts if isinstance(item, RayStats) else item
            total.counts += np.asarray(counts, dtype=np.int64).reshape(len(RayKind))
        return total

    def copy(self) -> "RayStats":
        return RayStats(self.counts.copy())

    def as_dict(self) -> dict[str, int]:
        return {
            "camera": self.camera,
            "reflected": self.reflected,
            "refracted": self.refracted,
            "shadow": self.shadow,
            "total": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RayStats(total={self.total}, camera={self.camera}, reflected={self.reflected}, "
            f"refracted={self.refracted}, shadow={self.shadow})"
        )
