"""Oracle caching for the benchmark suite.

Building a cost oracle renders the whole animation twice; benchmarks share
one oracle per (workload, resolution, frames, grid) via an on-disk cache so
`pytest benchmarks/` doesn't re-render per test.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ..parallel import AnimationCostOracle, build_oracle
from ..runtime import AnimationSpec

__all__ = ["cached_oracle", "default_cache_dir"]

#: Part of every cache key: bump it when rendering or change detection
#: changes what an oracle records, so no entry of the old algorithm is
#: served.  2: change sets keep only the voxels a moved object may touch.
_ORACLE_VERSION = 2


def default_cache_dir() -> Path:
    """The repository-level ``.oracle_cache/`` directory (created if absent)."""
    d = Path(__file__).resolve().parents[3] / ".oracle_cache"
    d.mkdir(exist_ok=True)
    return d


def cached_oracle(
    spec: AnimationSpec,
    grid_resolution: int = 32,
    cache_dir: Path | None = None,
    verbose: bool = False,
) -> AnimationCostOracle:
    """Build (or load) the oracle for an animation spec."""
    cache_dir = cache_dir or default_cache_dir()
    key_src = repr((_ORACLE_VERSION, spec.factory, sorted(spec.kwargs.items()), grid_resolution))
    key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
    path = cache_dir / f"oracle_{key}.npz"
    if path.exists():
        try:
            return AnimationCostOracle.load(path)
        except Exception:
            path.unlink()  # stale/corrupt cache entry: rebuild
    oracle = build_oracle(spec.build(), grid_resolution=grid_resolution, verbose=verbose)
    oracle.save(path)
    return oracle
