"""Online straggler detection over the farm's task latencies.

Each worker's task-latency EWMA is compared against the farm-wide EWMA; a
worker whose ratio exceeds ``ratio`` (with ``min_samples`` observations on
both sides) is declared a straggler via a ``health.straggler`` event, and
recovers — with hysteresis, at ``recover_ratio`` — via
``health.recovered``.  A live :class:`~repro.telemetry.RunFold` feeds the
detector every ``task`` span and keeps the resulting per-worker health
column ``repro top`` and ``/metrics`` show.
"""

from __future__ import annotations

__all__ = ["StragglerDetector"]


class StragglerDetector:
    """Online straggler detection over per-worker task latencies.

    Exponentially-weighted moving averages, one per worker plus one
    farm-wide; worker ``w`` is a straggler while
    ``ewma[w] / ewma[farm] >= ratio`` and recovers once the ratio drops
    under ``recover_ratio`` (hysteresis, so a worker hovering at the
    threshold doesn't flap).  Nothing is emitted until both the worker
    and the farm have seen ``min_samples`` observations.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        ratio: float = 2.0,
        recover_ratio: float = 1.5,
        min_samples: int = 4,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if recover_ratio > ratio:
            raise ValueError("recover_ratio must not exceed ratio (hysteresis)")
        self.alpha = float(alpha)
        self.ratio = float(ratio)
        self.recover_ratio = float(recover_ratio)
        self.min_samples = int(min_samples)
        self._ewma: dict[str, float] = {}
        self._n: dict[str, int] = {}
        self._farm_ewma = 0.0
        self._farm_n = 0
        self._flagged: set[str] = set()

    def observe(self, worker: str, duration: float, telemetry=None) -> str | None:
        """Fold one observation; returns ``"straggler"`` / ``"recovered"``
        when the worker's state flips (emitting the matching ``health.*``
        event into ``telemetry`` if one is given), else ``None``."""
        worker = str(worker)
        duration = float(duration)
        a = self.alpha
        prev = self._ewma.get(worker)
        self._ewma[worker] = duration if prev is None else (1 - a) * prev + a * duration
        self._n[worker] = self._n.get(worker, 0) + 1
        self._farm_ewma = (
            duration if self._farm_n == 0 else (1 - a) * self._farm_ewma + a * duration
        )
        self._farm_n += 1
        if self._n[worker] < self.min_samples or self._farm_n < self.min_samples:
            return None
        if self._farm_ewma <= 0.0:
            return None
        r = self._ewma[worker] / self._farm_ewma
        flipped = None
        if worker not in self._flagged and r >= self.ratio:
            self._flagged.add(worker)
            flipped = "straggler"
        elif worker in self._flagged and r < self.recover_ratio:
            self._flagged.discard(worker)
            flipped = "recovered"
        if flipped is not None and telemetry is not None:
            telemetry.event(
                f"health.{flipped}",
                worker=worker,
                ewma=round(self._ewma[worker], 6),
                farm=round(self._farm_ewma, 6),
                ratio=round(r, 4),
            )
        return flipped

    def state(self, worker: str) -> str:
        return "straggler" if str(worker) in self._flagged else "ok"

    @property
    def stragglers(self) -> set[str]:
        return set(self._flagged)
