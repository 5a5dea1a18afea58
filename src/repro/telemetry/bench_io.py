"""``BENCH_*.json`` emission: the machine-readable benchmark trajectory.

Every benchmark (and the CI smoke job) reports through one payload shape,
so the numbers of successive PRs stay comparable:

``{"bench": ..., "schema_version": ..., "unit": "...", "metrics": {...}}``

``metrics`` must contain at least :data:`REQUIRED_BENCH_METRICS`;
``validate_bench`` fails loudly on drift, which is what the CI smoke job
gates on.  The telemetry schema evolves additively, so a payload written
at any *older* ``schema_version`` stays valid; only a newer (or
non-integer) one is rejected.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .fold import report_from_events
from .schema import SCHEMA_VERSION

__all__ = [
    "REQUIRED_BENCH_METRICS",
    "bench_payload",
    "validate_bench",
    "write_bench_json",
    "metrics_from_events",
]

#: Every BENCH_*.json must report at least these metric keys.
REQUIRED_BENCH_METRICS = (
    "rays_total",
    "rays_camera",
    "rays_reflected",
    "rays_refracted",
    "rays_shadow",
    "computed_pixels",
    "copied_pixels",
    "wall_time",
    "n_frames",
    "n_workers",
)


def bench_payload(name: str, metrics: dict, extra: dict | None = None) -> dict:
    """Assemble (and validate) one benchmark result payload."""
    payload = {
        "bench": name,
        "schema_version": SCHEMA_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "metrics": dict(metrics),
    }
    if extra:
        payload["extra"] = dict(extra)
    validate_bench(payload)
    return payload


def validate_bench(payload: dict) -> None:
    """Raise ``ValueError`` when a payload drifts from the bench contract."""
    for key in ("bench", "schema_version", "metrics"):
        if key not in payload:
            raise ValueError(f"bench payload missing {key!r}")
    version = payload["schema_version"]
    if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
        raise ValueError(
            f"bench schema_version {version!r} is not an integer in 1..{SCHEMA_VERSION} "
            "(written by a newer telemetry schema than this checkout reads?)"
        )
    metrics = payload["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("bench metrics must be a dict")
    missing = [k for k in REQUIRED_BENCH_METRICS if k not in metrics]
    if missing:
        raise ValueError(f"bench metrics missing required keys: {missing}")
    bad = [k for k, v in metrics.items() if not isinstance(v, (int, float))]
    if bad:
        raise ValueError(f"bench metrics must be numeric; offending keys: {bad}")


def write_bench_json(
    results_dir: str | Path, name: str, metrics: dict, extra: dict | None = None
) -> Path:
    """Write ``BENCH_<name>.json`` into ``results_dir`` and return its path."""
    payload = bench_payload(name, metrics, extra)
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def metrics_from_events(events: list[dict]) -> dict:
    """Distill a telemetry event log into the required bench metrics."""
    rep = report_from_events(events)
    return {
        "rays_total": rep.rays.get("total", 0),
        "rays_camera": rep.rays.get("camera", 0),
        "rays_reflected": rep.rays.get("reflected", 0),
        "rays_refracted": rep.rays.get("refracted", 0),
        "rays_shadow": rep.rays.get("shadow", 0),
        "computed_pixels": rep.computed_pixels,
        "copied_pixels": rep.copied_pixels,
        "wall_time": rep.wall_time,
        "n_frames": rep.n_frames,
        "n_workers": rep.n_workers,
    }
