"""Figure 4 — sequence division vs. frame division layouts.

The paper's Figure 4 diagrams the two decompositions for four processors:
(a) each processor gets a run of whole frames; (b) each processor gets a
quadrant of every frame.  This bench regenerates both layouts (as text),
then actually *runs* both schemes in the cluster simulator on a 4-node
homogeneous cluster and reports the resulting load balance — the property
the figure is about.
"""

from __future__ import annotations

from repro.cluster import ThrashModel, homogeneous_cluster
from repro.parallel import (
    RenderFarmConfig,
    block_regions,
    region_grid_shape,
    sequence_ranges,
)
from repro.sched import simulate

from _bench_utils import write_result

N_PROC = 4


def _layout_text(oracle) -> str:
    lines = ["Figure 4(a) — sequence division, 4 processors:"]
    for i, (a, b) in enumerate(sequence_ranges(oracle.n_frames, N_PROC)):
        bar = "#" * (b - a)
        lines.append(f"  P{i + 1}: frames [{a:2d}, {b:2d})  {bar}")
    lines.append("")
    lines.append("Figure 4(b) — frame division, 4 processors (one quadrant each, all frames):")
    blocks = block_regions(oracle.width, oracle.height, oracle.width // 2, oracle.height // 2)
    cols, rows = region_grid_shape(blocks)
    assert (cols, rows) == (2, 2)
    for i, r in enumerate(blocks):
        lines.append(f"  P{i + 1}: pixels [{r.x0}:{r.x1}) x [{r.y0}:{r.y1})  ({r.n_pixels} px/frame)")
    return "\n".join(lines)


def test_figure4_layouts_and_balance(benchmark, newton_oracle, results_dir):
    machines = homogeneous_cluster(N_PROC, speed=1.0, memory_mb=128.0)
    cfg = RenderFarmConfig(pixel_scale=(320 * 240) / newton_oracle.n_pixels)
    thrash = ThrashModel(alpha=0.0)
    quadrants = block_regions(
        newton_oracle.width, newton_oracle.height, newton_oracle.width // 2, newton_oracle.height // 2
    )

    def run_both():
        seq = simulate(
            "sequence-division-fc",
            newton_oracle, machines, cfg, sec_per_work_unit=1e-4, thrash=thrash, trace=True
        )
        frame = simulate(
            "frame-division-fc",
            newton_oracle,
            machines,
            cfg,
            regions=quadrants,
            sec_per_work_unit=1e-4,
            thrash=thrash,
            trace=True,
        )
        return seq, frame

    seq, frame = benchmark.pedantic(run_both, rounds=1, iterations=1)

    text = _layout_text(newton_oracle) + "\n\n" + "\n".join(
        [
            "Simulated on 4 identical workstations:",
            f"  sequence division: total={seq.total_time:8.1f}s  imbalance={seq.load_imbalance:.3f}  "
            f"rays={seq.total_rays}  steals={seq.n_steals}",
            f"  frame division   : total={frame.total_time:8.1f}s  imbalance={frame.load_imbalance:.3f}  "
            f"rays={frame.total_rays}  steals={frame.n_steals}",
            "",
            "sequence-division timeline:",
            seq.timeline or "",
            "",
            "frame-division timeline:",
            frame.timeline or "",
        ]
    )
    write_result(results_dir, "fig4_partitioning.txt", text)

    # Both schemes keep all four processors busy within ~35%.
    assert seq.load_imbalance < 1.35
    assert frame.load_imbalance < 1.35
    # Layout sanity: sequence ranges tile the animation.
    ranges = sequence_ranges(newton_oracle.n_frames, N_PROC)
    assert ranges[0][0] == 0 and ranges[-1][1] == newton_oracle.n_frames
