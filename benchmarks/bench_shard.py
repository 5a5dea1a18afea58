"""Object-space sharding benchmark: ray trading priced against pixel shipping.

Two questions, answered in one run (``BENCH_shard.json`` + ``shard.txt``):

1. **What does the ray exchange cost on a real trace?**  One Newton frame
   is rendered serially and sharded (in process, K=4); the sharded
   composite must be bit-identical, and the request/reply payload bytes of
   the wavefront rounds are the measured price of object-space division.

2. **Does it scale past the paper's three workstations?**  The measured
   :class:`~repro.shard.ShardProfile` is extrapolated by
   :class:`~repro.shard.ShardOracle` (fan-out grows as ``sqrt(K)``, the
   surface-to-volume law of median-split domains) and replayed through the
   discrete-event simulator on 100/300/1000 *heterogeneous* workers —
   object-space vs. frame-division-nofc on identical clusters, recording
   modelled wall clock and bytes-of-rays per policy.

Runs under pytest (CI) and as a script::

    python benchmarks/bench_shard.py --quick
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"

#: Simulated worker counts for the scale sweep (the paper stops at 3).
SWEEP = (100, 300, 1000)


def _heterogeneous(n: int):
    """n workers with a deterministic 1x-2.5x speed spread (no RNG: the
    sweep must be reproducible bit-for-bit across runs)."""
    from repro.cluster import Machine

    return [
        Machine(f"m{i:04d}", speed=1.0 + 0.5 * ((i * 7) % 4), memory_mb=128.0)
        for i in range(n)
    ]


def _pixel_oracle(width: int, height: int, n_frames: int):
    """A flat synthetic cost oracle: the sim needs frame geometry and a
    pixel price, not a measured map, for the sweep's pixel-policy rival."""
    from repro.parallel.oracle import AnimationCostOracle

    full = np.full((n_frames, width * height), 2, dtype=np.int32)
    dirty = [np.array([], dtype=np.int64) for _ in range(n_frames)]
    return AnimationCostOracle(width, height, n_frames, full, dirty, grid_resolution=4)


def run(quick: bool = True, results_dir: Path = RESULTS_DIR) -> dict:
    from repro.cluster import ThrashModel
    from repro.parallel import RenderFarmConfig, default_block_layout
    from repro.render import RayTracer
    from repro.scenes import newton_animation
    from repro.sched import OracleCostModel, SimTransport, make_policy
    from repro.shard import ShardOracle, ShardProfile, render_frame_sharded
    from repro.telemetry import write_bench_json

    width, height = (64, 48) if quick else (160, 120)
    n_frames, k_local = 2, 4
    anim = newton_animation(n_frames=n_frames, width=width, height=height)

    # -- 1: measured ray exchange, sharded vs serial, bit-identical --------
    per_frame, serial_wall, shard_wall, ray_bytes = [], 0.0, 0.0, 0
    kinds = {"camera": 0, "reflected": 0, "refracted": 0, "shadow": 0}
    rays_total = 0
    for f in range(n_frames):
        scene = anim.scene_at(f)
        t0 = time.perf_counter()
        serial_fb, serial_res = RayTracer(scene).render()
        serial_wall += time.perf_counter() - t0
        t0 = time.perf_counter()
        fb, _, stats = render_frame_sharded(scene, shards=k_local)
        shard_wall += time.perf_counter() - t0
        if not np.array_equal(serial_fb.data, fb.data):
            raise AssertionError(f"sharded frame {f} is not bit-identical to serial")
        per_frame.append((stats, serial_res.stats.total))
        rays_total += serial_res.stats.total
        for kind in kinds:
            kinds[kind] += getattr(serial_res.stats, kind, 0)
        ray_bytes += int(stats.total_ray_bytes)
    profile = ShardProfile.from_stats(per_frame, width * height)

    # -- 2: the 100/300/1000 heterogeneous sweep ---------------------------
    cfg = RenderFarmConfig()
    px_oracle = _pixel_oracle(width, height, n_frames)
    regions = default_block_layout(width, height)
    pixel_cost = OracleCostModel(px_oracle, cfg, regions)
    no_thrash = ThrashModel(alpha=0.0)
    sweep_rows = []
    for n_workers in SWEEP:
        machines = _heterogeneous(n_workers)
        row = {"n_workers": n_workers}
        shard_oracle = ShardOracle(profile, n_shards=n_workers, cfg=cfg)
        p_obj = make_policy(
            "object-space", n_frames, n_regions=n_workers, frames_per_chunk=1
        )
        out_obj = SimTransport(
            p_obj,
            px_oracle,
            machines,
            cfg,
            cost_model=shard_oracle,
            label="object-space",
            sec_per_work_unit=1e-4,
            thrash=no_thrash,
        ).run()
        row["object-space"] = {
            "total_time": out_obj.total_time,
            "rays": shard_oracle.total_rays_of_log(p_obj.log),
            "ray_bytes": shard_oracle.ray_bytes_of_log(p_obj.log),
            "fanout": round(shard_oracle.fanout, 3),
        }
        p_px = make_policy(
            "frame-division-nofc",
            n_frames,
            n_regions=len(regions),
            frames_per_chunk=1,
        )
        out_px = SimTransport(
            p_px,
            px_oracle,
            machines,
            cfg,
            regions=regions,
            label="frame-division-nofc",
            sec_per_work_unit=1e-4,
            thrash=no_thrash,
        ).run()
        row["frame-division-nofc"] = {
            "total_time": out_px.total_time,
            "rays": pixel_cost.total_rays_of_log(p_px.log),
            "ray_bytes": 0,  # pixel policies ship pixels, never rays
        }
        sweep_rows.append(row)

    metrics = {
        "rays_total": int(rays_total),
        "rays_camera": int(kinds["camera"]),
        "rays_reflected": int(kinds["reflected"]),
        "rays_refracted": int(kinds["refracted"]),
        "rays_shadow": int(kinds["shadow"]),
        "computed_pixels": int(n_frames * width * height),
        "copied_pixels": 0,
        "wall_time": shard_wall,
        "n_frames": n_frames,
        "n_workers": k_local,
    }
    extra = {
        "quick": quick,
        "resolution": f"{width}x{height}",
        "n_shards_local": k_local,
        "serial_wall": serial_wall,
        "sharded_wall": shard_wall,
        "ray_exchange_bytes": ray_bytes,
        "rays_routed": int(sum(profile.rays_routed)),
        "fanout_measured": round(profile.fanout(), 3),
        "bytes_per_routed_ray": round(profile.bytes_per_routed_ray(), 1),
        "sweep": sweep_rows,
        "bit_identical": True,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    path = write_bench_json(results_dir, "shard", metrics, extra=extra)

    lines = [
        f"object-space sharding (newton {n_frames}f @ {width}x{height}, K={k_local} local)",
        f"  serial wall          {serial_wall:.3f} s",
        f"  sharded wall         {shard_wall:.3f} s (in-process owners, bit-identical)",
        f"  rays traced          {rays_total:,}",
        f"  rays routed          {sum(profile.rays_routed):,} "
        f"(fan-out {profile.fanout():.2f} owners/ray)",
        f"  ray exchange         {ray_bytes:,} B "
        f"({profile.bytes_per_routed_ray():.0f} B/routed ray)",
        "",
        "  modelled sweep (heterogeneous workers, object-space vs frame-division-nofc):",
    ]
    for row in sweep_rows:
        o, p = row["object-space"], row["frame-division-nofc"]
        lines.append(
            f"    {row['n_workers']:>5} workers: obj {o['total_time']:8.2f}s "
            f"({o['ray_bytes']:>12,} B rays, fan-out {o['fanout']:.1f})  "
            f"vs pixel {p['total_time']:8.2f}s"
        )
    (results_dir / "shard.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"\nwrote {path}")
    return {"metrics": metrics, "extra": extra}


def test_shard_bench(results_dir):
    out = run(quick=True, results_dir=results_dir)
    extra = out["extra"]
    assert extra["bit_identical"]
    assert extra["ray_exchange_bytes"] > 0
    # Fan-out (and therefore bytes of rays) must grow with the shard count.
    fanouts = [row["object-space"]["fanout"] for row in extra["sweep"]]
    assert fanouts == sorted(fanouts)
    assert all(row["object-space"]["ray_bytes"] > 0 for row in extra["sweep"])


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="small frames, CI-sized")
    ap.add_argument("--out", default=str(RESULTS_DIR), help="results directory")
    args = ap.parse_args()
    run(quick=args.quick, results_dir=Path(args.out))
