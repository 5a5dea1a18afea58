"""Ablation — network sensitivity.

The paper singles out "the ethernet network, which is relatively slow
compared to interconnection networks found on multiprocessor machines" and
argues the decomposition must keep "communication costs as low as possible".
This bench quantifies that: the Table-1 frame-division strategy is replayed
over networks from 1 Mbit/s to an idealised infinite-bandwidth fabric, for
both the paper's 4x3 block grid and an aggressively fine 16x12 grid.

Expected shape: coarse blocks barely notice the network (compute-bound on
10 Mbit Ethernet, the paper's operating point), while fine blocks degrade
badly on slow networks — the paper's per-pixel warning, in network form.
"""

from __future__ import annotations

from repro.cluster import ThrashModel, ncsu_testbed
from repro.parallel import RenderFarmConfig, block_regions
from repro.sched import simulate

from _bench_utils import write_result

SPU = 5e-4
THRASH = ThrashModel(alpha=0.0)

NETWORKS = [
    ("1 Mbit shared", dict(bandwidth_bits_per_s=1e6, latency_s=3e-3)),
    ("10 Mbit shared (paper)", dict(bandwidth_bits_per_s=10e6, latency_s=1.5e-3)),
    ("100 Mbit switched-ish", dict(bandwidth_bits_per_s=100e6, latency_s=0.3e-3)),
    ("ideal fabric", dict(bandwidth_bits_per_s=1e15, latency_s=0.0)),
]


def _run(oracle):
    machines = ncsu_testbed()
    cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)
    w, h = oracle.width, oracle.height
    grids = {
        "paper 4x3 blocks": block_regions(w, h, w // 4, h // 3),
        "fine 16x12 blocks": block_regions(w, h, w // 16, h // 12),
    }
    rows = []
    for net_name, net_kw in NETWORKS:
        for grid_name, regions in grids.items():
            out = simulate(
                "frame-division-fc",
                oracle,
                machines,
                cfg,
                regions=regions,
                sec_per_work_unit=SPU,
                thrash=THRASH,
                **net_kw,
            )
            rows.append((net_name, grid_name, out))
    return rows


def test_network_sensitivity(benchmark, newton_oracle, results_dir):
    rows = benchmark.pedantic(_run, args=(newton_oracle,), rounds=1, iterations=1)
    lines = [
        "Network sensitivity — frame division + FC on the NCSU testbed:",
        "",
        f"{'network':24s} {'blocks':20s} {'total(s)':>10s} {'eth busy':>9s} {'eth util':>9s}",
    ]
    by_key = {}
    for net_name, grid_name, out in rows:
        by_key[(net_name, grid_name)] = out
        lines.append(
            f"{net_name:24s} {grid_name:20s} {out.total_time:>10.1f} "
            f"{out.ethernet_busy_seconds:>9.1f} "
            f"{out.ethernet_busy_seconds / out.total_time:>9.1%}"
        )
    write_result(results_dir, "ablation_ethernet.txt", "\n".join(lines))

    paper = by_key[("10 Mbit shared (paper)", "paper 4x3 blocks")]
    ideal = by_key[("ideal fabric", "paper 4x3 blocks")]
    # At the paper's operating point, communication is a small tax (<15%).
    assert paper.total_time < ideal.total_time * 1.15
    # A slow network costs real time, and costs fine blocks more absolute
    # time than coarse blocks (more messages on a serialized medium).
    slow_fine = by_key[("1 Mbit shared", "fine 16x12 blocks")]
    ideal_fine = by_key[("ideal fabric", "fine 16x12 blocks")]
    slow_coarse = by_key[("1 Mbit shared", "paper 4x3 blocks")]
    loss_fine = slow_fine.total_time - ideal_fine.total_time
    loss_coarse = slow_coarse.total_time - ideal.total_time
    assert loss_fine > loss_coarse > 0
    # Fine blocks hold the wire longer at every bandwidth (16x the message
    # count; the ratio compresses on slow networks where the shared pixel
    # payload dominates per-message overhead).
    for net_name, _ in NETWORKS[:-1]:  # ideal fabric has ~zero busy time
        fine = by_key[(net_name, "fine 16x12 blocks")]
        coarse = by_key[(net_name, "paper 4x3 blocks")]
        assert fine.ethernet_busy_seconds > 1.5 * coarse.ethernet_busy_seconds
        assert fine.n_messages > 10 * coarse.n_messages
    # Bandwidth ordering is monotone for the fine grid.
    assert (
        by_key[("1 Mbit shared", "fine 16x12 blocks")].total_time
        > by_key[("10 Mbit shared (paper)", "fine 16x12 blocks")].total_time
        > by_key[("ideal fabric", "fine 16x12 blocks")].total_time
    )
