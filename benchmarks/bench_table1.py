"""Table 1 — "Performance results for Newton sequence".

Regenerates all nine columns from a measured cost oracle of the Newton
animation, simulated on the paper's three-machine SGI testbed.  Column (1)
is calibrated to the paper's 2:55:51; everything else is model output.

Run with ``pytest benchmarks/bench_table1.py --benchmark-only``; the
regenerated table lands in ``benchmarks/results/table1.txt``.
"""

from __future__ import annotations

import pytest

from repro.bench import PAPER_TABLE1, Table1Settings, format_table1, run_table1

from _bench_utils import write_result


@pytest.fixture(scope="module")
def table1(newton_oracle):
    return run_table1(newton_oracle, Table1Settings())


def test_table1_regeneration(benchmark, newton_oracle, results_dir):
    """Regenerate the whole table (all five strategy simulations) and check
    every shape the paper reports.  Paper values in parentheses."""
    result = benchmark.pedantic(
        run_table1, args=(newton_oracle, Table1Settings()), rounds=1, iterations=1
    )
    write_result(results_dir, "table1.txt", format_table1(result))

    # Machine-readable companions + coherence analytics.
    from repro.analysis import summarize_oracle
    from repro.bench import outcomes_csv, outcomes_markdown

    outcomes_csv(result.outcomes, path=results_dir / "table1_outcomes.csv")
    (results_dir / "table1_outcomes.md").write_text(outcomes_markdown(result.outcomes))
    summary = summarize_oracle(newton_oracle)
    write_result(
        results_dir,
        "table1_coherence_summary.txt",
        "\n".join(f"{k}: {v:.4f}" for k, v in summary.items()),
    )
    assert summary["frames_beyond_breakeven"] == 0  # FC pays on every frame

    # Column (1) calibrated to the paper's 2:55:51 by construction.
    assert result.single.total_time == pytest.approx(PAPER_TABLE1["single_total_s"], rel=1e-6)
    # Ray reduction (paper: 5x).
    assert 3.0 <= result.fc_ray_reduction <= 6.5
    # Column (3): single-processor FC speedup (paper: 2.93x).
    assert 2.5 <= result.fc_speedup <= 3.5
    # Column (5): distribution alone (paper: ~2x — fastest machine is 2x the others).
    assert 1.8 <= result.distributed_speedup <= 2.2
    # Column (7): sequence division + FC (paper: 5x).
    assert 3.5 <= result.seq_div_speedup <= 5.5
    # Column (9): frame division + FC (paper: 7x).
    assert 5.5 <= result.frame_div_speedup <= 8.0
    # Frame division wins (paper: 7 > 5).
    assert result.frame_div_speedup > result.seq_div_speedup
    # Better than multiplicative (paper: +18.5%).
    expected = result.fc_speedup * result.distributed_speedup
    assert result.frame_div_speedup > expected
    assert result.multiplicative_excess < 0.5

    # First-frame FC overhead (paper: ~12% of generation time).
    overhead = result.single_fc.first_frame_time / result.single.first_frame_time - 1.0
    assert 0.05 <= overhead <= 0.60

    # Ray-count orderings across columns.
    assert result.single.total_rays == result.distributed.total_rays
    assert result.single_fc.total_rays < result.single.total_rays
    assert result.seq_div_fc.total_rays >= result.frame_div_fc.total_rays >= result.single_fc.total_rays


def test_bench_frame_division_sim(benchmark, newton_oracle, table1):
    """Micro-benchmark: one frame-division+FC cluster-simulation replay."""
    from repro.parallel import RenderFarmConfig
    from repro.sched import simulate

    settings = Table1Settings()
    pixel_scale = settings.paper_pixels / newton_oracle.n_pixels
    cfg = RenderFarmConfig(pixel_scale=pixel_scale)
    benchmark(
        simulate,
        "frame-division-fc",
        newton_oracle,
        settings.machines,
        cfg,
        sec_per_work_unit=table1.sec_per_work_unit,
        thrash=settings.thrash,
    )
