"""Tests for the command-line interface (invoked in-process)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_animate_command(tmp_path, capsys):
    out = tmp_path / "frames"
    rc = main(
        [
            "animate",
            "newton",
            "--frames", "2",
            "--width", "32",
            "--height", "24",
            "--grid", "12",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert sorted(p.name for p in out.glob("*.tga")) == ["newton0000.tga", "newton0001.tga"]
    assert "pixel-renders avoided" in capsys.readouterr().out


def test_animate_shadow_coherence(tmp_path, capsys):
    rc = main(
        [
            "animate",
            "newton",
            "--frames", "3",
            "--width", "32",
            "--height", "24",
            "--grid", "12",
            "--out", str(tmp_path / "f"),
            "--shadow-coherence",
        ]
    )
    assert rc == 0
    assert "shadow rays saved" in capsys.readouterr().out


def test_validate_command(capsys):
    rc = main(
        ["validate", "brick", "--frames", "2", "--width", "32", "--height", "24", "--grid", "12"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact: True" in out
    assert "conservative: True" in out


def test_table1_command(capsys):
    rc = main(
        ["table1", "--frames", "3", "--width", "32", "--height", "24", "--grid", "12"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "(8) frame div+FC" in out
    assert "2:55:51" in out


def test_farm_command(capsys):
    rc = main(
        [
            "farm",
            "newton",
            "--frames", "2",
            "--width", "32",
            "--height", "24",
            "--grid", "12",
            "--workers", "2",
        ]
    )
    assert rc == 0
    assert "bit-identical to single-renderer reference: True" in capsys.readouterr().out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["animate", "nonsense"])


def test_oracle_command(tmp_path, capsys):
    rc = main(
        [
            "oracle",
            "newton",
            "--frames", "3",
            "--width", "32",
            "--height", "24",
            "--grid", "12",
            "--save", str(tmp_path / "o.npz"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean_dirty_fraction" in out
    assert "ray_reduction" in out
    assert (tmp_path / "o.npz").exists()


def test_farm_hybrid_mode(capsys):
    rc = main(
        [
            "farm",
            "newton",
            "--frames", "2",
            "--width", "32",
            "--height", "24",
            "--grid", "12",
            "--workers", "2",
            "--mode", "hybrid",
        ]
    )
    assert rc == 0
    assert "bit-identical" in capsys.readouterr().out
