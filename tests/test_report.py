"""Tests for outcome reporting (markdown/CSV exports, latency stats)."""

import csv
import io

import pytest

from repro.bench import (
    frame_completion_csv,
    frame_latency_stats,
    outcomes_csv,
    outcomes_markdown,
)
from repro.parallel import SimulationOutcome


def _outcome(name="s", total=100.0, frames=None):
    return SimulationOutcome(
        strategy=name,
        n_frames=4,
        total_time=total,
        first_frame_time=10.0,
        frame_completion_times=frames or {0: 10.0, 1: 30.0, 2: 60.0, 3: total},
        total_rays=5000,
        total_units=5600.0,
        machine_busy_seconds={"a": total * 0.9, "b": total * 0.8},
        n_messages=42,
        bytes_on_wire=1_000_000,
        ethernet_busy_seconds=3.0,
        n_chain_starts=2,
        n_steals=1,
    )


def test_markdown_table():
    md = outcomes_markdown([_outcome("alpha", 100.0), _outcome("beta", 50.0)])
    lines = md.splitlines()
    assert lines[0].startswith("| strategy |")
    assert "| alpha |" in md and "| beta |" in md
    assert "2.00x" in md  # beta vs alpha baseline


def test_markdown_custom_baseline():
    a, b = _outcome("a", 100.0), _outcome("b", 50.0)
    md = outcomes_markdown([a, b], baseline=b)
    assert "0.50x" in md  # a is half the speed of b


def test_markdown_empty_rejected():
    with pytest.raises(ValueError):
        outcomes_markdown([])


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    text = outcomes_csv([_outcome("x", 77.0)], path=path)
    assert path.read_text() == text
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["strategy"] == "x"
    assert float(rows[0]["total_seconds"]) == pytest.approx(77.0)
    assert int(rows[0]["total_rays"]) == 5000


def test_frame_completion_csv():
    text = frame_completion_csv(_outcome())
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [int(r["frame"]) for r in rows] == [0, 1, 2, 3]
    assert float(rows[1]["completed_at_seconds"]) == pytest.approx(30.0)


def test_frame_latency_stats():
    stats = frame_latency_stats(_outcome(total=100.0))
    # Gaps: 20, 30, 40.
    assert stats["mean"] == pytest.approx(30.0)
    assert stats["max"] == pytest.approx(40.0)
    assert stats["p50"] == pytest.approx(30.0)


def test_frame_latency_degenerate():
    out = _outcome(frames={0: 5.0})
    assert frame_latency_stats(out)["max"] == 0.0


def test_report_on_real_outcome(tiny_oracle):
    from repro.cluster import ThrashModel, ncsu_testbed
    from repro.parallel import RenderFarmConfig
    from repro.sched import simulate

    out = simulate(
        "frame-division-fc",
        tiny_oracle,
        ncsu_testbed(),
        RenderFarmConfig(),
        sec_per_work_unit=1e-4,
        thrash=ThrashModel(alpha=0.0),
    )
    md = outcomes_markdown([out])
    assert "frame-division+fc" in md
    stats = frame_latency_stats(out)
    assert stats["max"] >= stats["p90"] >= stats["p50"] >= 0.0
