"""Recovery tests for the supervised real render farm.

The acceptance scenario of the fault-tolerant runtime: workers crash and
hang mid-render, blocks come back corrupted, and the assembled animation
must still be *exactly* the fault-free reference — with the recovery
events on the record.  Also covers checkpoint spooling and resume.
"""

import glob
import json
import os

import numpy as np
import pytest

from repro.buffers import SEGMENT_PREFIX, default_pool
from repro.runtime import (
    AnimationSpec,
    FaultPlan,
    LocalRenderFarm,
    SupervisorError,
)

GRID = 12

pytestmark = pytest.mark.usefixtures("no_leaks")


@pytest.fixture(scope="module")
def spec():
    return AnimationSpec.newton(n_frames=3, width=48, height=36)


@pytest.fixture(scope="module")
def reference(spec):
    farm = LocalRenderFarm(spec, mode="frame", executor="serial", grid_resolution=GRID)
    return farm.render_reference()


def _segments() -> list[str]:
    """Live shared-memory segments of the farms this process ran; /dev/shm is
    machine-wide, and another process's runs are not this test's leak."""
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_{os.getpid()}x*")


def _farm(spec, **kw):
    kw.setdefault("mode", "frame")
    kw.setdefault("executor", "process")
    kw.setdefault("grid_resolution", GRID)
    return LocalRenderFarm(spec, **kw)


# -- the headline scenario -------------------------------------------------------
def test_crashes_and_hang_still_bit_identical(spec, reference):
    """Two of four workers crash mid-run and a third task hangs; the render
    completes and equals the fault-free serial reference exactly."""
    plan = FaultPlan(
        (
            FaultPlan.crash(1),
            FaultPlan.crash(5),
            FaultPlan.hang(3, attempts=(0, 1), hang_seconds=60.0),
        )
    )
    farm = _farm(spec, n_workers=4, fault_plan=plan, task_timeout=4.0)
    res = farm.render()
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_retries > 0
    assert res.n_crashes >= 1


@pytest.mark.parametrize("transport", ["process", "tcp"])
def test_worker_killed_mid_run_is_recovered_on_either_transport(
    spec, reference, kill_drill, transport
):
    """One drill, one plan, both masters: the worker holding a unit dies,
    the unit is re-dispatched, and the frames, the recovery record and the
    recovery events come out the same way whatever carried the units."""
    recovery, names = kill_drill(
        lambda **kw: _farm(spec, n_workers=2, transport=transport, **kw), reference
    )
    assert set(recovery) == {"retries", "timeouts", "crashes", "invalid", "degraded"}
    assert ("net.worker.lost" in names) == (transport == "tcp")


def test_corrupted_block_never_reaches_assembly(spec, reference):
    plan = FaultPlan((FaultPlan.corrupting(7),))
    res = _farm(spec, n_workers=4, fault_plan=plan).render()
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_invalid >= 1
    assert res.n_retries >= 1


def test_false_positive_deadline_slow_worker(spec, reference):
    """A slow-but-alive worker finishes after being declared dead; its
    duplicate completion is ignored and the frames are still exact."""
    plan = FaultPlan((FaultPlan.hang(2, hang_seconds=1.2),))
    res = _farm(spec, n_workers=4, fault_plan=plan, task_timeout=0.8).render()
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_timeouts >= 1
    accepted = [a for a in res.attempts if a.task_index == 2 and a.outcome.endswith("ok")]
    assert len(accepted) == 1


def test_retry_exhaustion_degrades_to_serial(spec, reference):
    plan = FaultPlan((FaultPlan.raising(0, attempts=(0, 1, 2)),))
    res = _farm(spec, n_workers=2, fault_plan=plan, max_attempts=3).render()
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_degraded == 1
    assert res.n_retries >= 3


def test_all_workers_dead_error_path(spec):
    """Unrecoverable pool loss surfaces as SupervisorError, not a hang."""
    from repro.runtime import FarmOptions
    from repro.runtime.local import _render_segment_task, _worker_init
    from repro.runtime.supervisor import TaskSupervisor

    from repro.coherence import grid_for_animation

    plan = FaultPlan((FaultPlan.crash(0, attempts=tuple(range(8))),))
    bounds = grid_for_animation(spec.build(), GRID).bounds
    grid = (GRID, tuple(bounds.lo.tolist()), tuple(bounds.hi.tolist()))
    whole_animation = (spec, None, 0, 3, 3, True, "sequence", grid, False, False, None)
    sup = TaskSupervisor.over(
        _render_segment_task,
        [whole_animation],
        FarmOptions(executor="process", n_workers=2, fault_plan=plan, max_attempts=8),
        initializer=_worker_init,
        initargs=(spec,),
        max_pool_rebuilds=1,  # cap rebuilds low so the test is quick
    )
    with pytest.raises(SupervisorError, match="pool lost"):
        sup.run()


@pytest.mark.parametrize(
    "kw",
    [
        # the only daemon dies on its first assignment, no attempt left
        dict(
            transport="tcp", n_workers=1, max_attempts=1,
            fault_plan=FaultPlan([FaultPlan.kill_worker(0, 0)]),
        ),
        # the drill above, through the farm: every pool is lost
        dict(
            n_workers=2,
            max_attempts=8,
            fault_plan=FaultPlan((FaultPlan.crash(0, attempts=tuple(range(8))),)),
        ),
    ],
    ids=["tcp", "pool"],
)
def test_failed_run_strands_no_composite_buffer(spec, kw):
    """A run that raises hands nothing to the caller, so the compositor's
    stack goes back to the pool (a daemon that retries jobs would otherwise
    accumulate them) and no shared-memory segment outlives it."""
    before = default_pool().stats()["n_outstanding"]
    with pytest.raises(RuntimeError, match="failed after 1 attempts|pool lost"):
        _farm(spec, **kw).render()
    assert default_pool().stats()["n_outstanding"] == before
    assert not _segments()


def test_thread_executor_raise_faults_recovered(spec, reference):
    plan = FaultPlan((FaultPlan.raising(4),))
    res = _farm(spec, n_workers=2, executor="thread", fault_plan=plan).render()
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_retries == 1


def test_serial_executor_corrupt_fault_recovered(spec, reference):
    plan = FaultPlan((FaultPlan.corrupting(3),))
    res = _farm(spec, n_workers=1, executor="serial", fault_plan=plan).render()
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_invalid == 1


# -- checkpoint/resume -----------------------------------------------------------
def test_resume_after_midway_failure_is_bit_identical(spec, reference, tmp_path):
    """Kill a render midway (via an unrecoverable fault), then resume: only
    the unfinished tasks re-execute and the frames are exactly equal."""
    run_dir = tmp_path / "run"
    poison = FaultPlan(
        tuple(FaultPlan.raising(i, attempts=tuple(range(6))) for i in (6, 9))
    )
    farm = _farm(
        spec, n_workers=2, fault_plan=poison, max_attempts=2, degrade_serial=False
    )
    with pytest.raises(SupervisorError):
        farm.render(run_dir=run_dir)

    spooled = sorted(run_dir.glob("task_*.npz"))
    assert 0 < len(spooled) < 12  # interrupted: some but not all tasks finished

    res = _farm(spec, n_workers=2).render(run_dir=run_dir)
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_from_checkpoint == len(spooled)
    executed = {a.task_index for a in res.attempts}
    assert len(executed) == 12 - len(spooled)  # only unfinished tasks re-ran


def _resume_drill(spec, reference, run_dir, **kw):
    """Spool a full run, lose a third of the files (one of them torn, not
    missing), resume twice: only the lost units re-run, then none do."""
    first = _farm(spec, n_workers=2, **kw).render(run_dir=run_dir)
    assert np.array_equal(first.frames, reference.frames)
    spooled = sorted(run_dir.glob("task_*.npz"))
    assert len(spooled) == first.n_tasks
    lost = spooled[::3]
    lost[0].write_bytes(b"not a zip at all")
    for path in lost[1:]:
        path.unlink()

    res = _farm(spec, n_workers=2, **kw).render(run_dir=run_dir)
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_tasks == first.n_tasks
    assert res.n_from_checkpoint == first.n_tasks - len(lost)
    assert len([a for a in res.attempts if a.outcome == "ok"]) == len(lost)
    assert res.stats.total == first.stats.total  # spooled ray counts survive
    assert sorted(run_dir.glob("task_*.npz")) == spooled  # the gaps were re-spooled

    again = _farm(spec, n_workers=2, **kw).render(run_dir=run_dir)
    assert np.array_equal(again.frames, reference.frames)
    assert again.n_from_checkpoint == again.n_tasks == first.n_tasks
    assert again.attempts == [] and again.net is None  # nothing was started
    assert again.stats.total == first.stats.total
    assert not _segments()


@pytest.mark.parametrize("schedule", ["static", "demand"])
@pytest.mark.parametrize(
    "transport, tile_px", [("process", None), ("tcp", None), ("tcp", 8)]
)
def test_resume_on_every_fixed_schedule_and_transport(
    spec, reference, tmp_path, transport, tile_px, schedule
):
    _resume_drill(spec, reference, tmp_path / "run",
                  transport=transport, tile_px=tile_px, schedule=schedule)


def test_spool_is_portable_across_transports(spec, reference, tmp_path):
    """What the service's last-chance serial attempt relies on: a spool
    written over sockets resumes on the in-process executor."""
    run_dir = tmp_path / "run"
    _farm(spec, n_workers=2, transport="tcp").render(run_dir=run_dir)
    (run_dir / "task_0005.npz").unlink()
    res = _farm(spec, n_workers=1, executor="serial").render(run_dir=run_dir)
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_from_checkpoint == 11


def test_resume_with_everything_done_executes_nothing(spec, reference, tmp_path):
    run_dir = tmp_path / "run"
    first = _farm(spec, n_workers=2).render(run_dir=run_dir)
    assert np.array_equal(first.frames, reference.frames)
    again = _farm(spec, n_workers=2).render(run_dir=run_dir)
    assert np.array_equal(again.frames, reference.frames)
    assert again.n_from_checkpoint == again.n_tasks == 12
    assert again.attempts == []
    assert again.stats.total == first.stats.total  # spooled ray counts survive


def test_corrupt_spool_file_re_renders_that_task(spec, reference, tmp_path):
    run_dir = tmp_path / "run"
    _farm(spec, n_workers=2).render(run_dir=run_dir)
    victim = run_dir / "task_0003.npz"
    victim.write_bytes(b"not a zip at all")
    res = _farm(spec, n_workers=2).render(run_dir=run_dir)
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_from_checkpoint == 11
    # The supervisor numbers attempts by dispatch order, not by unit:
    # exactly one ran, and it rewrote the victim's file.
    assert len(res.attempts) == 1
    with np.load(victim) as z:
        assert (int(z["f0"]), int(z["f1"]), int(z["f2"])) == (3, 0, 3)


def _older_spool(spec, tmp_path, samples):
    """A finished run's spool, relabelled as format 5 at ``samples`` per axis."""
    run_dir = tmp_path / "run"
    _farm(spec, executor="serial").render(run_dir=run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    older = {**manifest, "format": 5, "samples_per_axis": samples}
    (run_dir / "manifest.json").write_text(json.dumps(older))
    return run_dir, manifest, older


def test_older_format_spool_is_an_empty_spool(spec, reference, tmp_path):
    """A format bump must not dead-letter in-flight service jobs: a spool
    whose manifest differs only by an older format is cleared and redone.
    Format 5 still recorded ``samples_per_axis``; at one sample it is this
    render."""
    run_dir, manifest, _ = _older_spool(spec, tmp_path, 1)
    res = _farm(spec, executor="serial").render(run_dir=run_dir)
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_from_checkpoint == 0 and len(res.attempts) == 12
    assert json.loads((run_dir / "manifest.json").read_text()) == manifest


def test_older_format_supersampled_spool_is_refused(spec, tmp_path):
    """A format-5 spool at two samples per axis is a different render: it is
    refused, and nothing in it is cleared."""
    run_dir, _, older = _older_spool(spec, tmp_path, 2)
    with pytest.raises(ValueError, match="manifest mismatch"):
        _farm(spec, executor="serial").render(run_dir=run_dir)
    assert json.loads((run_dir / "manifest.json").read_text()) == older
    assert len(list(run_dir.glob("task_*.npz"))) == 12  # nothing cleared


def test_resume_manifest_mismatch_rejected(spec, tmp_path):
    run_dir = tmp_path / "run"
    _farm(spec, n_workers=2).render(run_dir=run_dir)
    other = _farm(spec, n_workers=2, mode="sequence")
    with pytest.raises(ValueError, match="manifest"):
        other.render(run_dir=run_dir)
    # The manifest itself is valid json describing the original run.
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["mode"] == "frame"
    assert manifest["n_tasks"] == 12


def test_sequence_mode_resume(spec, reference, tmp_path):
    run_dir = tmp_path / "run"
    farm = _farm(spec, n_workers=2, mode="sequence", executor="serial")
    first = farm.render(run_dir=run_dir)
    assert np.array_equal(first.frames, reference.frames)
    res = _farm(spec, n_workers=2, mode="sequence", executor="serial").render(run_dir=run_dir)
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_from_checkpoint == res.n_tasks


def test_hybrid_mode_resume(spec, reference, tmp_path):
    run_dir = tmp_path / "run"
    farm = _farm(spec, mode="hybrid", executor="serial", frames_per_chunk=2)
    farm.render(run_dir=run_dir)
    res = _farm(spec, mode="hybrid", executor="serial", frames_per_chunk=2).render(
        run_dir=run_dir
    )
    assert np.array_equal(res.frames, reference.frames)
    assert res.n_from_checkpoint == res.n_tasks == 24


# -- one compositor, one callback contract ---------------------------------------
@pytest.mark.parametrize("mode", ["frame", "sequence", "hybrid"])
def test_pool_progress_callbacks_follow_the_compositor(spec, reference, tmp_path, mode):
    """The contract the TCP tiles set, on the pool: every (frame, box) of
    the unit list arrives exactly once as a TileEvent, and a FrameEvent
    fires with the finished image when a frame's last block lands — on a
    fresh run and on one resumed from a spool that holds some units."""
    run_dir = tmp_path / "run"
    for resumed in (False, True):
        tiles, frames = [], []
        farm = _farm(
            spec, mode=mode, n_workers=2, executor="thread",
            on_tile=tiles.append, on_frame=frames.append,
        )
        res = farm.render(run_dir=run_dir)
        assert np.array_equal(res.frames, reference.frames)
        assert (0 < res.n_from_checkpoint < res.n_tasks) == resumed
        for path in sorted(run_dir.glob("task_*.npz"))[::2]:
            path.unlink()  # what the second pass has to render
        units, regions = farm._unit_list()
        boxes = {-1: (0, 0, 48, 36)}
        boxes.update((i, (r.x0, r.y0, r.x1, r.y1)) for i, r in enumerate(regions or ()))
        assert sorted((t.frame, (t.x0, t.y0, t.x1, t.y1)) for t in tiles) == sorted(
            (f, boxes[ri]) for ri, f0, f1 in units for f in range(f0, f1)
        )
        for t in tiles:
            assert np.array_equal(t.pixels, reference.frames[t.frame, t.y0:t.y1, t.x0:t.x1])
        assert sorted(ev.frame for ev in frames) == [0, 1, 2]
        assert [t.frame for t in tiles if t.frame_complete] == [ev.frame for ev in frames]
        for ev in frames:
            assert np.array_equal(ev.image, reference.frames[ev.frame])


def test_pool_segments_are_released_as_their_unit_lands(spec, reference):
    """A unit's shared-memory segment lives from its render to its
    compositing, not to the end of the run: with one process worker, a
    callback sees its own unit's segment and at most the next one's."""
    alive = []
    farm = _farm(
        spec,
        n_workers=1,
        on_tile=lambda ev: alive.append(len(_segments())),
    )
    res = farm.render()
    assert np.array_equal(res.frames, reference.frames)
    assert len(alive) == 12 * 3 and set(alive) <= {1, 2}
    assert not _segments()


# -- worker cache ----------------------------------------------------------------
def test_worker_cache_keyed_by_spec(spec):
    """Two concurrent thread farms with different specs must not poison each
    other's per-process animation cache."""
    other = AnimationSpec.newton(n_frames=2, width=32, height=24)
    farm_a = _farm(spec, n_workers=2, executor="thread")
    farm_b = _farm(other, n_workers=2, executor="thread", mode="sequence")
    ref_a = farm_a.render_reference()
    ref_b = farm_b.render_reference()

    import threading

    results = {}

    def run(name, farm):
        results[name] = farm.render()

    threads = [
        threading.Thread(target=run, args=("a", farm_a)),
        threading.Thread(target=run, args=("b", farm_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert np.array_equal(results["a"].frames, ref_a.frames)
    assert np.array_equal(results["b"].frames, ref_b.frames)
