"""Ablation — fault-tolerant rendering under machine failures.

Beyond the paper: the NOW's machines are desktops that crash and reboot.
This bench injects failures at various points of the Table-1 frame-division
run and measures the recovery cost (re-executed rays, extra wall clock)
against the failure-free fault-tolerant run and the non-fault-tolerant
baseline.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ThrashModel, ncsu_testbed
from repro.parallel import RenderFarmConfig
from repro.runtime import AnimationSpec, FaultPlan, LocalRenderFarm
from repro.sched import simulate

from _bench_utils import write_result

SPU = 5e-4
THRASH = ThrashModel(alpha=0.0)


def _run(oracle):
    machines = ncsu_testbed()
    cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)
    base = simulate(
        "frame-division-fc",
        oracle, machines, cfg, sec_per_work_unit=SPU, thrash=THRASH
    )
    clean = simulate(
        "frame-division-fc-ft",
        oracle, machines, cfg, sec_per_work_unit=SPU, thrash=THRASH
    )
    rows = [("baseline (no FT)", base), ("FT, no failure", clean)]
    for label, frac in [("early", 0.1), ("midway", 0.5), ("late", 0.9)]:
        out = simulate(
            "frame-division-fc-ft",
            oracle,
            machines,
            cfg,
            sec_per_work_unit=SPU,
            thrash=THRASH,
            failures=[("indigo2-100", clean.total_time * frac)],
        )
        rows.append((f"FT, slave dies {label}", out))
    both = simulate(
        "frame-division-fc-ft",
        oracle,
        machines,
        cfg,
        sec_per_work_unit=SPU,
        thrash=THRASH,
        failures=[
            ("indigo2-100", clean.total_time * 0.3),
            ("indigo-100", clean.total_time * 0.6),
        ],
    )
    rows.append(("FT, both slaves die", both))
    return rows


def test_fault_tolerance_recovery_cost(benchmark, newton_oracle, results_dir):
    rows = benchmark.pedantic(_run, args=(newton_oracle,), rounds=1, iterations=1)
    by_name = dict(rows)
    clean = by_name["FT, no failure"]
    lines = [
        "Fault tolerance — frame division + FC on the NCSU testbed:",
        "",
        f"{'scenario':24s} {'total(s)':>10s} {'vs clean':>9s} {'rays':>10s} {'frames':>7s} {'events':>7s}",
    ]
    for name, out in rows:
        lines.append(
            f"{name:24s} {out.total_time:>10.1f} {out.total_time / clean.total_time:>8.2f}x "
            f"{out.total_rays:>10,d} {len(out.frame_completion_times):>7d} "
            f"{out.n_steals + out.recovery['retries']:>7d}"
        )
    write_result(results_dir, "ablation_fault_tolerance.txt", "\n".join(lines))

    # Every scenario completes all 45 frames.
    for name, out in rows:
        assert len(out.frame_completion_times) == newton_oracle.n_frames, name
    # FT overhead without failures is modest.
    base = by_name["baseline (no FT)"]
    assert clean.total_time < 1.5 * base.total_time
    # A failure costs time; ray totals stay above the single-chain floor
    # (restart patterns differ run to run, so only the floor is invariant)
    # and within sanity of the clean run.
    floor = newton_oracle.total_coherent_rays()
    for scenario in ("FT, slave dies early", "FT, slave dies midway", "FT, slave dies late"):
        out = by_name[scenario]
        assert out.total_rays >= floor
        assert out.total_time > clean.total_time
        assert out.total_time < 4.0 * clean.total_time
    # Losing both slaves is survivable (single surviving machine).
    assert by_name["FT, both slaves die"].total_time > clean.total_time


def test_fault_tolerance_sequence_division(benchmark, newton_oracle, results_dir):
    """Same failure sweep for the paper's other scheme: each machine owns a
    contiguous frame range, so losing one orphans whole frames and the
    replacement chain restarts from scratch (no frame coherence to reuse)."""

    def _run(oracle):
        machines = ncsu_testbed()
        cfg = RenderFarmConfig(pixel_scale=(320 * 240) / oracle.n_pixels)
        clean = simulate(
            "sequence-division-fc-ft",
            oracle, machines, cfg, sec_per_work_unit=SPU, thrash=THRASH
        )
        rows = [("FT, no failure", clean)]
        for label, frac in [("early", 0.1), ("midway", 0.5)]:
            out = simulate(
                "sequence-division-fc-ft",
                oracle,
                machines,
                cfg,
                sec_per_work_unit=SPU,
                thrash=THRASH,
                failures=[("indigo2-100", clean.total_time * frac)],
            )
            rows.append((f"FT, slave dies {label}", out))
        return rows

    rows = benchmark.pedantic(_run, args=(newton_oracle,), rounds=1, iterations=1)
    by_name = dict(rows)
    clean = by_name["FT, no failure"]
    lines = [
        "Fault tolerance — sequence division + FC on the NCSU testbed:",
        "",
        f"{'scenario':24s} {'total(s)':>10s} {'vs clean':>9s} {'rays':>10s} {'frames':>7s}",
    ]
    for name, out in rows:
        lines.append(
            f"{name:24s} {out.total_time:>10.1f} {out.total_time / clean.total_time:>8.2f}x "
            f"{out.total_rays:>10,d} {len(out.frame_completion_times):>7d}"
        )
    write_result(results_dir, "ablation_fault_tolerance_seq.txt", "\n".join(lines))

    for name, out in rows:
        assert len(out.frame_completion_times) == newton_oracle.n_frames, name
    for scenario in ("FT, slave dies early", "FT, slave dies midway"):
        assert by_name[scenario].total_rays >= clean.total_rays


def test_real_farm_fault_injection_overhead(benchmark, results_dir):
    """The supervised *real* farm under injected faults: a crash, a hang and
    a corrupted block must cost retries, not correctness."""
    spec = AnimationSpec.newton(n_frames=3, width=64, height=48)

    def _run():
        reference = LocalRenderFarm(
            spec, mode="frame", executor="serial", grid_resolution=16
        ).render_reference()
        clean = LocalRenderFarm(
            spec, n_workers=4, mode="frame", executor="process", grid_resolution=16
        ).render()
        plan = FaultPlan(
            (
                FaultPlan.crash(1),
                FaultPlan.hang(3, hang_seconds=30.0),
                FaultPlan.corrupting(7),
            )
        )
        faulty = LocalRenderFarm(
            spec,
            n_workers=4,
            mode="frame",
            executor="process",
            grid_resolution=16,
            fault_plan=plan,
            task_timeout=5.0,
        ).render()
        return reference, clean, faulty

    reference, clean, faulty = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        "Real farm — supervised recovery under injected faults (newton 3x64x48):",
        "",
        f"{'run':16s} {'identical':>10s} {'retries':>8s} {'timeouts':>9s} {'crashes':>8s} {'invalid':>8s}",
        f"{'clean':16s} {str(np.array_equal(clean.frames, reference.frames)):>10s} "
        f"{clean.n_retries:>8d} {clean.n_timeouts:>9d} {clean.n_crashes:>8d} {clean.n_invalid:>8d}",
        f"{'crash+hang+nan':16s} {str(np.array_equal(faulty.frames, reference.frames)):>10s} "
        f"{faulty.n_retries:>8d} {faulty.n_timeouts:>9d} {faulty.n_crashes:>8d} {faulty.n_invalid:>8d}",
    ]
    write_result(results_dir, "real_farm_fault_injection.txt", "\n".join(lines))

    assert np.array_equal(clean.frames, reference.frames)
    assert np.array_equal(faulty.frames, reference.frames)
    assert faulty.n_retries > 0
