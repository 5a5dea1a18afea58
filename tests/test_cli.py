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


@pytest.mark.parametrize(
    "used, hint",
    [("jobs", "pass resume=True"), ("ledger.wal", "job journal of an older service")],
    ids=["jobs", "ledger.wal"],
)
def test_serve_refuses_a_used_state_dir_in_one_line(tmp_path, capsys, used, hint):
    """A state dir holding ``jobs/`` (without ``--resume``) or an older
    service's ``ledger.wal`` is a usage error: one line on stderr, status 2."""
    state = tmp_path / "state"
    state.mkdir()
    if used == "jobs":
        (state / "jobs").mkdir()
    else:
        (state / "ledger.wal").write_bytes(b"")
    assert main(["serve", "--state-dir", str(state), "--port", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("serve: ") and hint in err
