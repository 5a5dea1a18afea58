"""Ablation — block-size sweep for frame division.

The paper: "Reducing the size of the subarea in frame subdivision can
result in better load balancing ... At the extreme, we could assign each
processor a single pixel to compute for the entire sequence; however, the
overhead of message passing, as well as other bookkeeping tasks, would
result in inefficiency and longer execution time."

This bench sweeps block sizes from one-block-per-worker down to 4x4 pixels
(plus a true per-pixel run on a miniature oracle) and regenerates exactly
that U-shaped curve: total time improves as blocks shrink (load balance),
then degrades as message passing dominates.
"""

from __future__ import annotations


from repro.bench import cached_oracle
from repro.cluster import ThrashModel, ncsu_testbed
from repro.parallel import RenderFarmConfig, block_regions, pixel_regions
from repro.runtime import AnimationSpec
from repro.sched import simulate

from _bench_utils import write_result

SPU = 5e-4
THRASH = ThrashModel(alpha=0.0)


def _run_sweep(oracle):
    machines = ncsu_testbed()
    cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)
    w, h = oracle.width, oracle.height
    sweep = []
    for label, bw, bh in [
        ("whole frame (1 block)", w, h),
        ("half frame", w // 2, h),
        ("quadrant", w // 2, h // 2),
        ("paper 4x3 grid", w // 4, h // 3),
        ("fine 8x6 grid", w // 8, h // 6),
        ("very fine 16x12 grid", w // 16, h // 12),
        ("tiny 4x4 px blocks", 4, 4),
    ]:
        regions = block_regions(w, h, bw, bh)
        out = simulate(
            "frame-division-fc",
            oracle, machines, cfg, regions=regions, sec_per_work_unit=SPU, thrash=THRASH
        )
        sweep.append((label, len(regions), out))
    return sweep


def test_block_size_sweep(benchmark, newton_oracle, results_dir):
    sweep = benchmark.pedantic(_run_sweep, args=(newton_oracle,), rounds=1, iterations=1)
    lines = ["Block-size sweep — frame division + FC on the NCSU testbed:", ""]
    lines.append(f"{'blocks':>8s} {'layout':28s} {'total(s)':>10s} {'imbalance':>10s} {'msgs':>8s} {'eth(s)':>8s}")
    for label, n, out in sweep:
        lines.append(
            f"{n:>8d} {label:28s} {out.total_time:>10.1f} {out.load_imbalance:>10.3f} "
            f"{out.n_messages:>8d} {out.ethernet_busy_seconds:>8.1f}"
        )
    write_result(results_dir, "ablation_block_size.txt", "\n".join(lines))

    times = {label: out.total_time for label, _, out in sweep}
    # Moderate subdivision beats one-block-per-machine (load balancing)...
    assert times["paper 4x3 grid"] < times["whole frame (1 block)"]
    # ...and the extreme is worse than the paper's sweet spot (messaging
    # and per-block bookkeeping overhead).
    assert times["tiny 4x4 px blocks"] > times["paper 4x3 grid"]


def test_pixel_division_extreme(benchmark, results_dir):
    """True per-pixel assignment on a miniature workload: the message count
    explodes and wall-clock loses to the paper's 80x80-equivalent blocks."""
    spec = AnimationSpec.newton(n_frames=6, width=32, height=24)
    oracle = cached_oracle(spec, grid_resolution=16)
    machines = ncsu_testbed()
    cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)

    def run():
        per_pixel = simulate(
            "frame-division-fc",
            oracle,
            machines,
            cfg,
            regions=pixel_regions(oracle.width, oracle.height),
            sec_per_work_unit=SPU,
            thrash=THRASH,
        )
        blocks = simulate(
            "frame-division-fc",
            oracle,
            machines,
            cfg,
            sec_per_work_unit=SPU,
            thrash=THRASH,
        )
        return per_pixel, blocks

    per_pixel, blocks = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        results_dir,
        "ablation_pixel_division.txt",
        "Per-pixel division (32x24, 6 frames) vs paper-style blocks:\n"
        f"  per-pixel: total={per_pixel.total_time:10.1f}s  messages={per_pixel.n_messages}\n"
        f"  blocks   : total={blocks.total_time:10.1f}s  messages={blocks.n_messages}\n",
    )
    assert per_pixel.n_messages > 50 * blocks.n_messages
    assert per_pixel.total_time > blocks.total_time
