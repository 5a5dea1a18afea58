"""Regeneration of Table 1: "Performance results for Newton sequence".

The paper's table has nine columns:

    (1) single processor                 — no coherence
    (2) single processor + coherence     (3) = (2) speedup over (1)
    (4) distributed (blocks), no FC      (5) = (4) speedup over (1)
    (6) sequence division + FC           (7) = (6) speedup over (1)
    (8) frame division + FC              (9) = (8) speedup over (1)

and four rows: total # rays, first-frame time, average frame time, total
time.  :func:`run_table1` reproduces all of it from a cost oracle of the
Newton animation and the simulated NCSU testbed.

Calibration: ``sec_per_work_unit`` is fitted so that column (1)'s total
time equals the paper's 2:55:51 — a single scale constant standing in for
"seconds per ray on a 200 MHz SGI Indigo² running POV-Ray 3.0".  Every
other number is then produced by the model, not fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import Machine, ThrashModel, ncsu_testbed
from ..parallel import AnimationCostOracle, RenderFarmConfig, SimulationOutcome, format_hms
from ..sched import simulate

__all__ = ["PAPER_TABLE1", "Table1Settings", "Table1Result", "run_table1", "format_table1"]

#: The paper's reported values (OCR-garbled cells omitted).  Times in
#: seconds; ratios straight from the table; quotes from the text.
PAPER_TABLE1 = {
    "single_rays": 21_970_900,
    "single_total_s": 2 * 3600 + 55 * 60 + 51,  # "2:55:51"
    "fc_ray_reduction": 5.0,  # "the total number of rays produced decreased by a factor of 5"
    "fc_speedup": 2.93,  # "total animation generation speed increased nearly by a factor of 3"
    "fc_first_frame_overhead": 0.12,  # "overhead constitutes a reasonable 12%"
    "distributed_speedup": 2.0,  # "Rendering is about twice as fast here, as expected"
    "seq_div_speedup": 5.0,  # "significant speedups of 5"
    "frame_div_speedup": 7.0,  # "... and 7 for sequence and frame division"
    "multiplicative_excess": 0.185,  # "better than the multiplicative expectation (18.5%)"
}

#: Default memory-pressure model.  See RenderFarmConfig for the working-set
#: model; the sublinear paging curve is tuned so a full-frame coherence
#: chain (~73 MB at 320x240) slows the 64 MB master ~17% and the 32 MB
#: slaves ~30% — the paper's "aggregate memory" effect.
_DEFAULT_THRASH = ThrashModel(alpha=0.30, exponent=1.0 / 3.0)


@dataclass
class Table1Settings:
    """Parameters of a Table-1 regeneration run."""

    machines: list[Machine] = field(default_factory=ncsu_testbed)
    cfg: RenderFarmConfig = field(default_factory=RenderFarmConfig)
    thrash: ThrashModel = _DEFAULT_THRASH
    calibrate_total_s: float | None = float(PAPER_TABLE1["single_total_s"])
    sec_per_work_unit: float = 1e-4  # used when calibrate_total_s is None
    paper_pixels: int = 320 * 240


@dataclass
class Table1Result:
    """All nine columns, plus the outcomes they came from."""

    single: SimulationOutcome
    single_fc: SimulationOutcome
    distributed: SimulationOutcome
    seq_div_fc: SimulationOutcome
    frame_div_fc: SimulationOutcome
    sec_per_work_unit: float

    @property
    def outcomes(self) -> list[SimulationOutcome]:
        return [self.single, self.single_fc, self.distributed, self.seq_div_fc, self.frame_div_fc]

    # Ratio columns (3), (5), (7), (9):
    @property
    def fc_speedup(self) -> float:
        return self.single_fc.speedup_vs(self.single)

    @property
    def distributed_speedup(self) -> float:
        return self.distributed.speedup_vs(self.single)

    @property
    def seq_div_speedup(self) -> float:
        return self.seq_div_fc.speedup_vs(self.single)

    @property
    def frame_div_speedup(self) -> float:
        return self.frame_div_fc.speedup_vs(self.single)

    @property
    def fc_ray_reduction(self) -> float:
        return self.single.total_rays / self.single_fc.total_rays

    @property
    def multiplicative_excess(self) -> float:
        """How far frame division beats fc_speedup x distributed_speedup."""
        expected = self.fc_speedup * self.distributed_speedup
        return self.frame_div_speedup / expected - 1.0


def run_table1(
    oracle: AnimationCostOracle, settings: Table1Settings | None = None
) -> Table1Result:
    """Simulate all five strategies of Table 1 against one cost oracle."""
    s = settings or Table1Settings()
    # Scale memory/message pixel counts to the paper's resolution.
    pixel_scale = s.paper_pixels / oracle.n_pixels
    cfg = RenderFarmConfig(
        **{**s.cfg.__dict__, "pixel_scale": s.cfg.pixel_scale * pixel_scale}
    )

    fast = s.machines[0]
    if s.calibrate_total_s is not None:
        # Fit sec_per_work_unit so column (1) hits the paper's total.  The
        # single no-FC run has no thrash (working set fits) and no
        # communication, so total = units * spu / speed + write time; solve
        # by one probe run at spu = 1.
        probe = simulate(
            "single", oracle, s.machines, cfg, sec_per_work_unit=1.0, thrash=s.thrash
        )
        write_time = probe.total_time - probe.total_units * 1.0 / fast.speed
        spu = (s.calibrate_total_s - write_time) * fast.speed / probe.total_units
        if spu <= 0:
            raise ValueError("calibration target too small for the modelled write time")
    else:
        spu = s.sec_per_work_unit

    def run(strategy: str) -> SimulationOutcome:
        return simulate(
            strategy, oracle, s.machines, cfg, sec_per_work_unit=spu, thrash=s.thrash
        )

    return Table1Result(
        single=run("single"),
        single_fc=run("single-fc"),
        distributed=run("frame-division-nofc"),
        seq_div_fc=run("sequence-division-fc"),
        frame_div_fc=run("frame-division-fc"),
        sec_per_work_unit=spu,
    )


def format_table1(result: Table1Result) -> str:
    """Render the table in the paper's layout, paper values alongside."""
    r = result
    cols = [
        ("(1) single", r.single, None, None),
        ("(2) single+FC", r.single_fc, r.fc_speedup, PAPER_TABLE1["fc_speedup"]),
        ("(4) distributed", r.distributed, r.distributed_speedup, PAPER_TABLE1["distributed_speedup"]),
        ("(6) seq div+FC", r.seq_div_fc, r.seq_div_speedup, PAPER_TABLE1["seq_div_speedup"]),
        ("(8) frame div+FC", r.frame_div_fc, r.frame_div_speedup, PAPER_TABLE1["frame_div_speedup"]),
    ]
    lines = []
    header = f"{'':22s}" + "".join(f"{name:>18s}" for name, *_ in cols)
    lines.append(header)
    lines.append(
        f"{'# rays':22s}" + "".join(f"{o.total_rays:>18,d}" for _, o, _, _ in cols)
    )
    ff = r.single.first_frame_time
    ff_fc = r.single_fc.first_frame_time
    lines.append(
        f"{'first frame':22s}{format_hms(ff):>18s}{format_hms(ff_fc):>18s}"
        + f"{'-':>18s}" * 3
    )
    lines.append(
        f"{'average frame':22s}"
        + "".join(f"{format_hms(o.avg_frame_time):>18s}" for _, o, _, _ in cols)
    )
    lines.append(
        f"{'total time':22s}" + "".join(f"{format_hms(o.total_time):>18s}" for _, o, _, _ in cols)
    )
    lines.append(
        f"{'speedup vs (1)':22s}"
        + "".join(
            f"{'1.00':>18s}" if sp is None else f"{sp:>18.2f}" for _, _, sp, _ in cols
        )
    )
    lines.append(
        f"{'paper speedup':22s}"
        + "".join(f"{'-':>18s}" if pp is None else f"{pp:>18.2f}" for _, _, _, pp in cols)
    )
    lines.append("")
    lines.append(
        f"ray reduction (1)/(2): measured {r.fc_ray_reduction:.2f}x, "
        f"paper {PAPER_TABLE1['fc_ray_reduction']:.1f}x"
    )
    lines.append(
        f"frame-div excess over multiplicative: measured "
        f"{r.multiplicative_excess * 100:.1f}%, paper "
        f"{PAPER_TABLE1['multiplicative_excess'] * 100:.1f}%"
    )
    return "\n".join(lines)
