"""The unified render facade: one request shape for all three engines."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ENGINES, RenderRequest, RenderResult, render
from repro.telemetry import CORE_EVENTS, schema_of_events, validate_events

SMALL = dict(workload="newton", n_frames=3, width=48, height=36, grid_resolution=12)


# -- dispatch --------------------------------------------------------------------
def test_animation_engine_matches_pipeline():
    """The animation engine against a full RayTracer render of each frame:
    same pixels, fewer rays, and the pixels it did not trace were copied."""
    from repro.render import RayTracer
    from repro.scenes import newton_animation

    result = render(RenderRequest(engine="animation", **SMALL))
    assert isinstance(result, RenderResult)
    assert result.engine == "animation" and result.workload == "newton"
    anim = newton_animation(n_frames=3, width=48, height=36)
    full = [RayTracer(anim.scene_at(f)).render() for f in range(anim.n_frames)]
    assert np.array_equal(result.frames, np.stack([fb.as_image() for fb, _res in full]))
    assert 0 < result.stats.total < sum(res.stats.total for _fb, res in full)
    assert result.total_copied_pixels() > 0
    assert result.total_computed_pixels() + result.total_copied_pixels() == 3 * 48 * 36


def test_farm_engine_bit_identical(tmp_path):
    result = render(
        RenderRequest(
            engine="farm", executor="thread", n_workers=2, mode="frame",
            verify=True, telemetry=True, run_dir=tmp_path / "run", **SMALL,
        )
    )
    assert result.engine == "farm"
    assert result.bit_identical is True
    assert result.n_tasks > 0 and result.n_workers == 2
    assert result.recovery["retries"] == 0
    assert (tmp_path / "run" / "events.jsonl").exists()


def test_simulate_engine_returns_outcome():
    result = render(RenderRequest(engine="simulate", strategy="frame-division-fc", **SMALL))
    assert result.engine == "simulate" and result.mode == "frame-division-fc"
    assert result.outcome is not None
    assert result.outcome.total_time > 0
    assert result.frames is None  # the simulator models time, not pixels


def test_kwargs_override_request():
    req = RenderRequest(engine="animation", **SMALL)
    result = render(req, n_frames=2)
    assert result.n_frames == 2


def test_a_farm_option_is_declared_once():
    """RenderRequest carries every FarmOptions field (it inherits them), the
    farm's constructor names none, and the validation is the declaration's."""
    import inspect
    from dataclasses import fields

    from repro.runtime import AnimationSpec, FarmOptions, LocalRenderFarm

    assert {f.name for f in fields(FarmOptions)} <= {f.name for f in fields(RenderRequest)}
    assert list(inspect.signature(LocalRenderFarm.__init__).parameters) == [
        "self", "spec", "options"
    ]
    bad = {
        "mode": ("tile", "mode must be 'frame', 'sequence' or 'hybrid'"),
        "executor": ("gpu", "executor must be 'process', 'thread' or 'serial'"),
        "schedule": ("eager", "schedule must be 'static', 'demand' or 'adaptive'"),
        "transport": ("udp", "transport must be 'process' or 'tcp'"),
        "tile_px": (0, "tile_px must be None or >= 1, got 0"),
        "n_workers": (0, "n_workers must be >= 1"),
    }
    spec = AnimationSpec.newton(n_frames=2, width=16, height=12)
    for name, (value, message) in bad.items():
        for build in (FarmOptions, RenderRequest, lambda **kw: LocalRenderFarm(spec, **kw)):
            with pytest.raises(ValueError) as err:
                build(**{name: value})
            assert str(err.value) == message
    with pytest.raises(TypeError, match="net_die_after"):
        LocalRenderFarm(spec, net_die_after={0: 1})


def test_bad_engine_strategy_workload_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        render(RenderRequest(engine="warp"))
    with pytest.raises(ValueError, match="unknown strategy"):
        render(RenderRequest(engine="simulate", strategy="psychic", **SMALL))
    with pytest.raises(ValueError, match="unknown workload"):
        render(RenderRequest(workload="doom"))
    with pytest.raises(ValueError, match="picklable"):
        from repro.scenes import newton_animation

        render(RenderRequest(workload=newton_animation(n_frames=2), engine="farm"))
    assert set(ENGINES) == {"animation", "farm", "simulate"}
    from repro.sched import SIM_STRATEGIES

    assert "sequence-division-fc" in SIM_STRATEGIES


def test_render_animation_entry_point_removed():
    import importlib.util

    import repro

    assert not hasattr(repro, "render_animation")
    assert importlib.util.find_spec("repro.pipeline") is None  # the engine is the farm


def test_result_frames_are_lazy_but_array_shaped():
    from repro.api import LazyFrames

    calls = []

    def thunk():
        calls.append(1)
        return np.zeros((2, 3, 4, 3))

    lazy = LazyFrames(thunk)
    assert calls == []  # nothing materialized yet
    assert lazy.shape == (2, 3, 4, 3)
    assert len(lazy) == 2 and lazy[0].shape == (3, 4, 3)
    assert np.asarray(lazy).dtype == np.float64
    assert calls == [1]  # the thunk ran exactly once

    result = render(RenderRequest(engine="animation", **SMALL))
    assert isinstance(result.frames, LazyFrames)
    assert result.frames.shape == (3, 36, 48, 3)
    assert result.frames.tobytes() == np.asarray(result.frames).tobytes()


def test_unified_callbacks_across_engines():
    """on_frame fires per frame on every engine (FrameEvent), with pixels
    on the real engines and image=None on the simulators."""
    for engine, has_pixels in (("animation", True), ("farm", True), ("simulate", False)):
        seen = []
        kwargs = {"executor": "thread", "n_workers": 2} if engine == "farm" else {}
        render(RenderRequest(engine=engine, on_frame=seen.append, **kwargs, **SMALL))
        assert [ev.frame for ev in seen] == [0, 1, 2], engine
        assert all((ev.image is not None) == has_pixels for ev in seen), engine


# -- the telemetry acceptance criterion ------------------------------------------
def test_farm_and_simulator_emit_identical_schema(tmp_path):
    """A real farm run and a simulated run of the same Newton spec must be
    schema-identical on every event name they share, and both must cover
    the core event set."""
    farm = render(
        RenderRequest(
            engine="farm", executor="thread", n_workers=2, mode="sequence",
            telemetry=True, **SMALL,
        )
    )
    sim = render(
        RenderRequest(engine="simulate", strategy="sequence-division-fc",
                      telemetry=True, **SMALL)
    )
    validate_events(farm.events)
    validate_events(sim.events)
    farm_schema = schema_of_events(farm.events)
    sim_schema = schema_of_events(sim.events)
    assert set(CORE_EVENTS) <= set(farm_schema)
    assert set(CORE_EVENTS) <= set(sim_schema)
    shared = set(farm_schema) & set(sim_schema)
    for name in shared:
        assert frozenset(farm_schema[name]) == frozenset(sim_schema[name]), name


def test_animation_engine_core_events_and_jsonl(tmp_path):
    result = render(
        RenderRequest(engine="animation", telemetry=True,
                      events_path=tmp_path / "log.jsonl", **SMALL)
    )
    validate_events(result.events)
    names = {e["name"] for e in result.events}
    assert set(CORE_EVENTS) <= names
    on_disk = [json.loads(s) for s in Path(result.events_path).read_text().splitlines()]
    assert on_disk == result.events
    # run.end totals agree with the returned stats object.
    end = next(e for e in result.events if e["name"] == "run.end")
    assert end["attrs"]["rays_total"] == result.stats.total
    assert end["attrs"]["computed_pixels"] == result.total_computed_pixels()


def test_no_telemetry_means_no_events():
    result = render(RenderRequest(engine="animation", **SMALL))
    assert result.events == [] and result.events_path is None


def test_farm_profile_dir_produces_mergeable_profiles(tmp_path):
    from repro.telemetry import merge_profiles

    result = render(
        RenderRequest(
            engine="farm", executor="serial", n_workers=1, mode="sequence",
            telemetry=True, profile_dir=tmp_path / "prof", **SMALL,
        )
    )
    profs = sorted((tmp_path / "prof").glob("*.prof"))
    assert profs, "each task should leave a .prof file"
    assert merge_profiles(tmp_path / "prof") is not None
    names = {e["name"] for e in result.events}
    assert "profile" in names


# -- the CLI surface -------------------------------------------------------------
def test_cli_telemetry_subcommand(tmp_path, capsys):
    from repro.cli import main

    run_dir = tmp_path / "run"
    render(
        RenderRequest(engine="farm", executor="thread", n_workers=2,
                      telemetry=True, run_dir=run_dir, **SMALL)
    )
    assert main(["telemetry", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "telemetry report" in out
    assert "rays by kind" in out
    assert "per-worker utilization" in out
    assert main(["telemetry", str(run_dir / "events.jsonl")]) == 0


def test_cli_simulate_subcommand(capsys):
    from repro.cli import main

    rc = main(
        ["simulate", "newton", "--frames", "3", "--width", "48", "--height", "36",
         "--grid", "12", "--strategy", "frame-division-fc"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "frame-division+fc" in out
    assert "virtual seconds" in out


def test_simulate_rejects_deadline_options_without_a_deadline(tiny_oracle):
    """``failures`` / ``task_timeout`` given to a strategy that runs with a
    blocking master would be ignored (or dead-lock the virtual PVM): an
    error that names the strategy to use instead."""
    for extra in ({"failures": [("indigo-100", 0.5)]}, {"task_timeout": 5.0}):
        with pytest.raises(ValueError, match="frame-division-fc-ft"):
            render(
                RenderRequest(
                    engine="simulate", strategy="frame-division-fc", oracle=tiny_oracle, **extra
                )
            )
    result = render(
        RenderRequest(
            engine="simulate", strategy="frame-division-fc-ft", oracle=tiny_oracle,
            failures=[("indigo-100", 0.5)],
        )
    )
    assert result.outcome.recovery["timeouts"] == result.outcome.recovery["retries"] == 1
    assert len(result.outcome.frame_completion_times) == tiny_oracle.n_frames


def test_simulate_takes_task_timeout_as_its_worker_deadline(tiny_oracle):
    """The farm's fixed per-unit deadline is the simulator's worker deadline:
    a request's ``task_timeout`` runs exactly as ``simulate(...,
    worker_timeout=...)``."""
    from repro.cluster import ncsu_testbed
    from repro.sched import simulate

    strategy, failures = "sequence-division-fc-ft", [("indigo-100", 0.5)]
    outcomes = []
    for timeout in (2.0, 60.0):
        got = render(
            RenderRequest(engine="simulate", strategy=strategy, oracle=tiny_oracle,
                          failures=failures, task_timeout=timeout)
        ).outcome
        assert got == simulate(strategy, tiny_oracle, ncsu_testbed(), failures=failures,
                               worker_timeout=timeout)
        outcomes.append(got)
    assert outcomes[0].total_time != outcomes[1].total_time


def test_cli_simulate_ft_strategy(capsys, tmp_path, tiny_oracle):
    """The CLI has no failure-injection flag, so it can never trip the check
    above: every ``--strategy`` choice runs, the ``-ft`` ones under the
    default worker deadline."""
    from repro.cli import build_parser, main
    from repro.sched import SIM_STRATEGIES

    tiny_oracle.save(tmp_path / "oracle.npz")
    argv = ["simulate", "newton", "--oracle", str(tmp_path / "oracle.npz"), "--strategy"]
    assert main(argv + ["sequence-division-fc-ft"]) == 0
    assert "sequence-division+fc+ft: 5 frames on 3 machines" in capsys.readouterr().out
    assert main(argv + ["frame-division-fc"]) == 0
    assert len(SIM_STRATEGIES) == 9
    for name in SIM_STRATEGIES:
        assert build_parser().parse_args(argv + [name]).strategy == name
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["object-space"])
