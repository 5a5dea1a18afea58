"""Ablation — adaptive vs. static sequence division.

The paper: "A potential drawback to this method occurs if the number of
frames assigned to each processor is static.  The situation may lead to
load imbalance due to differing processor speeds and the complexity of the
subsequences.  Each sequence, however, can be adaptively subdivided such
that a faster processor can receive more work once it completes its
sequence."

Static assignment is emulated by disabling stealing (min_steal_frames
larger than the animation) and, for the worst case, ignoring machine
speeds in the initial split.
"""

from __future__ import annotations

import dataclasses

from repro.cluster import ThrashModel, ncsu_testbed
from repro.parallel import RenderFarmConfig
from repro.sched import simulate

from _bench_utils import write_result

SPU = 5e-4
THRASH = ThrashModel(alpha=0.0)


def _run(oracle):
    machines = ncsu_testbed()
    base_cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)
    adaptive = simulate(
        "sequence-division-fc",
        oracle, machines, base_cfg, sec_per_work_unit=SPU, thrash=THRASH
    )
    static_cfg = dataclasses.replace(base_cfg, min_steal_frames=10**6)
    static = simulate(
        "sequence-division-fc",
        oracle, machines, static_cfg, sec_per_work_unit=SPU, thrash=THRASH
    )
    return adaptive, static


def test_adaptive_vs_static(benchmark, newton_oracle, results_dir):
    adaptive, static = benchmark.pedantic(_run, args=(newton_oracle,), rounds=1, iterations=1)
    lines = [
        "Sequence division on the heterogeneous NCSU testbed (2:1:1 speeds):",
        f"  adaptive (stealing on) : total={adaptive.total_time:8.1f}s  "
        f"imbalance={adaptive.load_imbalance:.3f}  steals={adaptive.n_steals}  rays={adaptive.total_rays}",
        f"  static   (stealing off): total={static.total_time:8.1f}s  "
        f"imbalance={static.load_imbalance:.3f}  steals={static.n_steals}  rays={static.total_rays}",
    ]
    write_result(results_dir, "ablation_adaptive.txt", "\n".join(lines))
    assert static.n_steals == 0
    # Adaptive subdivision never loses, and pays at most a few restart rays.
    assert adaptive.total_time <= static.total_time * 1.02
    assert adaptive.total_rays >= static.total_rays  # restarts cost rays
