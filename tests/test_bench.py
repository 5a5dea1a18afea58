"""Tests for the Table-1 regeneration harness."""

import pytest

from repro.bench import (
    PAPER_TABLE1,
    Table1Settings,
    cached_oracle,
    format_table1,
    run_table1,
)
from repro.bench import cache
from repro.runtime import AnimationSpec


def test_paper_constants_sane():
    assert PAPER_TABLE1["single_total_s"] == 10551
    assert PAPER_TABLE1["fc_ray_reduction"] == 5.0
    assert PAPER_TABLE1["frame_div_speedup"] > PAPER_TABLE1["seq_div_speedup"]


def test_run_table1_on_tiny_oracle(tiny_oracle):
    result = run_table1(tiny_oracle)
    # Calibration: column (1) hits the paper's total by construction.
    assert result.single.total_time == pytest.approx(
        PAPER_TABLE1["single_total_s"], rel=1e-6
    )
    # Orderings that must hold at any scale:
    assert result.single_fc.total_time < result.single.total_time
    assert result.frame_div_fc.total_time < result.single_fc.total_time
    assert result.fc_ray_reduction > 1.0
    assert result.sec_per_work_unit > 0


def test_run_table1_uncalibrated(tiny_oracle):
    settings = Table1Settings(calibrate_total_s=None, sec_per_work_unit=1e-3)
    result = run_table1(tiny_oracle, settings)
    assert result.sec_per_work_unit == 1e-3


def test_format_table1_layout(tiny_oracle):
    result = run_table1(tiny_oracle)
    text = format_table1(result)
    for token in (
        "(1) single",
        "(2) single+FC",
        "(4) distributed",
        "(6) seq div+FC",
        "(8) frame div+FC",
        "# rays",
        "first frame",
        "average frame",
        "total time",
        "speedup vs (1)",
        "ray reduction",
    ):
        assert token in text
    assert "2:55:51" in text  # the calibrated column (1) total


def test_cached_oracle_roundtrip(tmp_path):
    spec = AnimationSpec.newton(n_frames=2, width=24, height=18)
    a = cached_oracle(spec, grid_resolution=8, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("oracle_*.npz"))) == 1
    b = cached_oracle(spec, grid_resolution=8, cache_dir=tmp_path)
    assert (a.full_cost == b.full_cost).all()
    # Different parameters get a different cache entry.
    cached_oracle(spec, grid_resolution=12, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("oracle_*.npz"))) == 2


def test_cached_oracle_corrupt_entry_rebuilt(tmp_path):
    spec = AnimationSpec.newton(n_frames=2, width=24, height=18)
    cached_oracle(spec, grid_resolution=8, cache_dir=tmp_path)
    entry = next(tmp_path.glob("oracle_*.npz"))
    entry.write_bytes(b"garbage")
    again = cached_oracle(spec, grid_resolution=8, cache_dir=tmp_path)
    assert again.n_frames == 2


def test_cached_oracle_of_another_version_is_rebuilt(tmp_path, monkeypatch):
    spec = AnimationSpec.newton(n_frames=2, width=24, height=18)
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(cache._ORACLE_VERSION)
        return build_oracle(*args, **kwargs)

    build_oracle = cache.build_oracle
    monkeypatch.setattr(cache, "build_oracle", counting_build)
    current = cache._ORACLE_VERSION
    monkeypatch.setattr(cache, "_ORACLE_VERSION", current - 1)
    cached_oracle(spec, grid_resolution=8, cache_dir=tmp_path)
    monkeypatch.setattr(cache, "_ORACLE_VERSION", current)
    fresh = cached_oracle(spec, grid_resolution=8, cache_dir=tmp_path)
    assert builds == [current - 1, current]
    again = cached_oracle(spec, grid_resolution=8, cache_dir=tmp_path)
    assert builds == [current - 1, current]
    assert (again.full_cost == fresh.full_cost).all()
