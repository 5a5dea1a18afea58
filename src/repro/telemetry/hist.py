"""Mergeable log-bucketed streaming histograms (DDSketch-style).

The reset-on-flush summaries the spine used to emit (sort the list, pick
two order statistics) cannot be combined across processes: a worker's
``p95`` and the master's ``p95`` do not add.  :class:`LogHistogram` fixes
that with the standard log-bucketed sketch: values land in buckets whose
edges grow geometrically (``gamma = (1 + rel_err) / (1 - rel_err)``), so
any quantile read back from the buckets is within ``rel_err`` *relative*
error of the true order statistic, and two sketches merge by adding
bucket counts — an associative, commutative fold, which is what lets
worker-side digests ride a RESULT frame and fold into the master's sketches.

Small samples stay exact: every observation is also kept verbatim until
``exact_cap`` is reached, so a four-value histogram reports the same
``p50`` the old sorted-list summary did.  The exactness degrades the same
way under ``merge`` as under ingesting the concatenation (both drop to
buckets as soon as the combined count exceeds the cap), preserving the
``merge(a, b) == ingest(a ++ b)`` property the tests pin.
"""

from __future__ import annotations

import math

__all__ = ["LogHistogram", "DEFAULT_REL_ERR"]

#: Default bounded relative error for quantile estimates.
DEFAULT_REL_ERR = 0.01

#: Observations kept verbatim before degrading to bucket-only quantiles.
_EXACT_CAP = 256


class LogHistogram:
    """A mergeable streaming histogram with bounded relative error.

    Non-positive observations are counted in a dedicated zero bucket
    (latencies are non-negative; a measured 0.0 is a real observation,
    not an error).  ``count``/``sum``/``min``/``max`` are tracked exactly
    regardless of bucketing.
    """

    __slots__ = ("rel_err", "gamma", "_log_gamma", "count", "total", "vmin", "vmax",
                 "zeros", "buckets", "_samples")

    def __init__(self, rel_err: float = DEFAULT_REL_ERR):
        if not 0.0 < rel_err < 1.0:
            raise ValueError(f"rel_err must be in (0, 1), got {rel_err}")
        self.rel_err = float(rel_err)
        self.gamma = (1.0 + rel_err) / (1.0 - rel_err)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.zeros = 0
        self.buckets: dict[int, int] = {}
        self._samples: list[float] | None = []  # None once degraded

    # -- ingestion -------------------------------------------------------------
    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        if value <= 0.0:
            self.zeros += 1
        else:
            key = math.ceil(math.log(value) / self._log_gamma)
            self.buckets[key] = self.buckets.get(key, 0) + 1
        if self._samples is not None:
            if self.count <= _EXACT_CAP:
                self._samples.append(value)
            else:
                self._samples = None

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into ``self`` (associative; returns ``self``)."""
        if not isinstance(other, LogHistogram):
            raise TypeError(f"cannot merge LogHistogram with {type(other).__name__}")
        if abs(other.gamma - self.gamma) > 1e-12:
            raise ValueError("cannot merge histograms with different rel_err")
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        self.zeros += other.zeros
        for key, n in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n
        if self._samples is not None and other._samples is not None and self.count <= _EXACT_CAP:
            self._samples = self._samples + other._samples
        else:
            self._samples = None
        return self

    # -- reading ---------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within ``rel_err`` relative
        error of the true rank-``floor(q * count)`` order statistic (exact
        while the sample buffer survives)."""
        if self.count == 0:
            return 0.0
        rank = min(self.count - 1, int(q * self.count))
        if self._samples is not None:
            return sorted(self._samples)[rank]
        if rank < self.zeros:
            return min(0.0, self.vmin)
        seen = self.zeros
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen > rank:
                # Bucket key k covers (gamma^(k-1), gamma^k]; the midpoint
                # 2*gamma^k/(gamma+1) is within rel_err of anything inside.
                est = 2.0 * self.gamma ** key / (self.gamma + 1.0)
                return min(self.vmax, max(self.vmin, est))
        return self.vmax

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """Flush-record attrs: the legacy summary keys plus p99 and the
        mergeable digest (so a worker's flushed histogram record can fold
        into a downstream :class:`~repro.telemetry.RunFold`)."""
        return {
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "rel_err": self.rel_err,
            "digest": self.to_dict(),
        }

    # -- wire form -------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe digest; bucket keys become strings for the wire."""
        d = {
            "rel_err": self.rel_err,
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "zeros": self.zeros,
            "buckets": {str(k): n for k, n in self.buckets.items()},
        }
        if self._samples is not None:
            d["samples"] = list(self._samples)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LogHistogram":
        h = cls(rel_err=float(d.get("rel_err", DEFAULT_REL_ERR)))
        h.count = int(d.get("count", 0))
        h.total = float(d.get("sum", 0.0))
        h.vmin = float(d["min"]) if h.count else math.inf
        h.vmax = float(d["max"]) if h.count else -math.inf
        h.zeros = int(d.get("zeros", 0))
        h.buckets = {int(k): int(n) for k, n in (d.get("buckets") or {}).items()}
        samples = d.get("samples")
        h._samples = [float(v) for v in samples] if samples is not None else None
        return h
