"""Ablation — scalability over cluster size and heterogeneity.

The paper's conclusion: "Depending on the number of workstations
participating in the computation and the performance power of each of the
machines, one can build an extremely powerful rendering environment", and
its future work calls for "further tests with heterogeneous environments,
as well as more homogeneous ones".  This bench runs both:

* a homogeneous scaling sweep (1..16 identical nodes, frame division + FC);
* a heterogeneity sweep (same aggregate speed, increasingly skewed).
"""

from __future__ import annotations

from repro.cluster import Machine, ThrashModel, homogeneous_cluster
from repro.parallel import RenderFarmConfig
from repro.sched import simulate

from _bench_utils import write_result

SPU = 5e-4
THRASH = ThrashModel(alpha=0.0)


def _scaling(oracle):
    cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)
    rows = []
    for n in (1, 2, 4, 8, 16):
        machines = homogeneous_cluster(n, speed=1.0, memory_mb=128.0)
        out = simulate(
            "frame-division-fc",
            oracle, machines, cfg, sec_per_work_unit=SPU, thrash=THRASH
        )
        rows.append((n, out))
    return rows


def _heterogeneity(oracle):
    cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)
    rows = []
    # Four machines, aggregate speed 4.0, increasingly skewed.
    for label, speeds in [
        ("1:1:1:1", [1.0, 1.0, 1.0, 1.0]),
        ("2:1:0.5:0.5", [2.0, 1.0, 0.5, 0.5]),
        ("3:0.5:0.25:0.25", [3.0, 0.5, 0.25, 0.25]),
    ]:
        machines = [
            Machine(f"m{i}", speed=s, memory_mb=128.0) for i, s in enumerate(speeds)
        ]
        out = simulate(
            "frame-division-fc",
            oracle, machines, cfg, sec_per_work_unit=SPU, thrash=THRASH
        )
        rows.append((label, out))
    return rows


def test_homogeneous_scaling(benchmark, newton_oracle, results_dir):
    rows = benchmark.pedantic(_scaling, args=(newton_oracle,), rounds=1, iterations=1)
    t1 = rows[0][1].total_time
    lines = [
        "Homogeneous scaling — frame division + FC:",
        "",
        f"{'nodes':>6s} {'total(s)':>10s} {'speedup':>8s} {'efficiency':>11s} {'imbalance':>10s}",
    ]
    for n, out in rows:
        sp = t1 / out.total_time
        lines.append(
            f"{n:>6d} {out.total_time:>10.1f} {sp:>8.2f} {sp / n:>10.1%} {out.load_imbalance:>10.3f}"
        )
    write_result(results_dir, "ablation_scaling.txt", "\n".join(lines))

    speedups = {n: t1 / out.total_time for n, out in rows}
    # Monotone scaling with good efficiency through 8 nodes.
    assert speedups[2] > 1.6
    assert speedups[4] > 2.8
    assert speedups[8] > 4.5
    assert speedups[16] > speedups[8] * 0.9  # may flatten, must not regress much


def test_heterogeneity_tolerance(benchmark, newton_oracle, results_dir):
    rows = benchmark.pedantic(_heterogeneity, args=(newton_oracle,), rounds=1, iterations=1)
    lines = [
        "Heterogeneity sweep — 4 machines, aggregate speed 4.0, frame division + FC:",
        "",
        f"{'speeds':>18s} {'total(s)':>10s} {'steals':>7s}",
    ]
    for label, out in rows:
        lines.append(f"{label:>18s} {out.total_time:>10.1f} {out.n_steals:>7d}")
    write_result(results_dir, "ablation_heterogeneity.txt", "\n".join(lines))

    base = rows[0][1].total_time
    # Demand-driven frame division absorbs heterogeneity: even the most
    # skewed cluster stays within 40% of the homogeneous time at equal
    # aggregate speed.
    for _, out in rows[1:]:
        assert out.total_time < base * 1.4
