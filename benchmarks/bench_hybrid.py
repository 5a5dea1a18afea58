"""Ablation — the hybrid decomposition (subarea x subsequence).

The paper: "many other decomposition schemes exist, such as a hybrid of
the two methods proposed above (i.e., each processor computes pixels in a
subarea of a frame for a subsequence of the entire animation)".

This bench sweeps the hybrid's chunk length between the two extremes it
interpolates: chunk = n_frames reduces to pure frame division (one chain
per block), chunk = 1 reduces to fully incoherent block tasks.  Shorter
chunks buy scheduling freedom and lower per-node memory residency at the
price of chain-restart rays.
"""

from __future__ import annotations

from repro.cluster import ThrashModel, ncsu_testbed
from repro.parallel import RenderFarmConfig
from repro.sched import simulate

from _bench_utils import write_result

SPU = 5e-4
THRASH = ThrashModel(alpha=0.0)


def _run(oracle):
    machines = ncsu_testbed()
    cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)
    rows = [
        (
            "sequence division",
            simulate(
                "sequence-division-fc",
                oracle, machines, cfg, sec_per_work_unit=SPU, thrash=THRASH
            ),
        ),
        (
            "frame division",
            simulate(
                "frame-division-fc",
                oracle, machines, cfg, sec_per_work_unit=SPU, thrash=THRASH
            ),
        ),
    ]
    for chunk in (45, 15, 5, 1):
        rows.append(
            (
                f"hybrid, chunk={chunk}",
                simulate(
                    "hybrid-fc",
                    oracle,
                    machines,
                    cfg,
                    frames_per_chunk=chunk,
                    sec_per_work_unit=SPU,
                    thrash=THRASH,
                ),
            )
        )
    return rows


def test_hybrid_sweep(benchmark, newton_oracle, results_dir):
    rows = benchmark.pedantic(_run, args=(newton_oracle,), rounds=1, iterations=1)
    lines = [
        "Hybrid decomposition sweep — NCSU testbed, Newton 45 frames:",
        "",
        f"{'scheme':22s} {'total(s)':>10s} {'rays':>10s} {'chains':>7s} {'imbalance':>10s}",
    ]
    by_name = {}
    for name, out in rows:
        by_name[name] = out
        lines.append(
            f"{name:22s} {out.total_time:>10.1f} {out.total_rays:>10,d} "
            f"{out.n_chain_starts:>7d} {out.load_imbalance:>10.3f}"
        )
    write_result(results_dir, "ablation_hybrid.txt", "\n".join(lines))

    # chunk = n_frames is frame division up to scheduling noise.
    full_chunk = by_name["hybrid, chunk=45"]
    frame_div = by_name["frame division"]
    assert full_chunk.total_rays == frame_div.total_rays
    # Shorter chunks monotonically cost more rays (more chain starts)...
    assert (
        by_name["hybrid, chunk=1"].total_rays
        > by_name["hybrid, chunk=5"].total_rays
        > by_name["hybrid, chunk=15"].total_rays
        >= by_name["hybrid, chunk=45"].total_rays
    )
    # ...and chunk=1 (no intra-task coherence at all) is clearly slower.
    assert by_name["hybrid, chunk=1"].total_time > 1.3 * frame_div.total_time