"""Unit tests for the supervised pool and fault injection.

These use toy task functions (picklable, module-level) through the
supervisor's list form — one unit per task, dispatched FIFO by a
``DemandDrivenPolicy`` — so every recovery path (crash, hang, raise,
corrupt, timeout false positive, retry exhaustion, degradation) is
exercised in seconds, independent of the renderer.  A loss reaches the
policy, which requeues the unit for a fresh lane.
"""

import time

import numpy as np
import pytest

from repro.runtime import FarmOptions, RecoveryOptions, deadline
from repro.runtime.faults import FaultInjected, FaultPlan, FaultSpec, corrupt_result
from repro.runtime.supervisor import SupervisorError, TaskSupervisor
from repro.sched.master import MasterCore

pytestmark = pytest.mark.usefixtures("no_leaks")


def _supervise(fn, tasks, **options):
    """The list form over ``FarmOptions(**options)``; ``max_pool_rebuilds``,
    ``validate`` and ``on_result`` go to the supervisor."""
    kw = {k: options.pop(k) for k in ("max_pool_rebuilds", "validate", "on_result")
          if k in options}
    return TaskSupervisor.over(fn, tasks, FarmOptions(**options), **kw)


def _double(x):
    return 2 * x


def _array_task(x):
    return (np.full(4, float(x)), int(x))


def _validate_array(task, result):
    arr = np.asarray(result[0])
    return arr.shape == (4,) and bool(np.isfinite(arr).all())


# -- basics ---------------------------------------------------------------------
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_clean_run_all_executors(executor):
    out = _supervise(_double, [1, 2, 3, 4, 5], executor=executor, n_workers=2).run()
    assert out.results == [2, 4, 6, 8, 10]
    assert out.supervisor.n_retries == 0
    assert out.supervisor.n_degraded == 0
    assert {a.outcome for a in out.supervisor.attempts} == {"ok"}


def test_parameter_validation():
    with pytest.raises(ValueError):
        _supervise(_double, [1], executor="nope")
    with pytest.raises(ValueError):
        RecoveryOptions(max_attempts=0)
    with pytest.raises(ValueError):
        _supervise(_double, [1], n_workers=0)


def test_fault_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultSpec("meteor", 0)


def test_corrupt_result_introduces_nan():
    good = (np.zeros(8), 3)
    bad = corrupt_result(good)
    assert np.isnan(bad[0]).any()
    assert not np.isnan(good[0]).any()  # original untouched
    assert bad[1] == 3


def test_on_result_fires_once_per_task():
    seen = []
    _supervise(
        _double, [1, 2, 3], executor="serial",
        on_result=lambda a, r: seen.append((a.region_index, r)),
    ).run()
    assert sorted(seen) == [(0, 2), (1, 4), (2, 6)]


# -- raise faults ----------------------------------------------------------------
def test_raise_fault_is_retried_serial():
    plan = FaultPlan((FaultPlan.raising(1),))
    out = _supervise(_double, [1, 2, 3], executor="serial", fault_plan=plan).run()
    assert out.results == [2, 4, 6]
    assert out.supervisor.n_retries == 1
    assert any(
        a.outcome == "error" and "FaultInjected" in a.error for a in out.supervisor.attempts
    )


def test_raise_fault_is_retried_process():
    plan = FaultPlan((FaultPlan.raising(0),))
    out = _supervise(_double, [1, 2, 3], executor="process", n_workers=2, fault_plan=plan).run()
    assert out.results == [2, 4, 6]
    assert out.supervisor.n_retries == 1


def test_fault_plan_apply_raises_inline():
    plan = FaultPlan((FaultPlan.raising(7),))
    with pytest.raises(FaultInjected):
        plan.apply_before(7, 0, disruptive_ok=False)
    plan.apply_before(7, 1, disruptive_ok=False)  # wrong attempt: no fault
    plan.apply_before(3, 0, disruptive_ok=False)  # wrong task: no fault


# -- corrupt faults + validation -------------------------------------------------
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_corrupt_output_rejected_and_retried(executor):
    plan = FaultPlan((FaultPlan.corrupting(2),))
    out = _supervise(
        _array_task,
        [1, 2, 3],
        executor=executor,
        n_workers=2,
        validate=_validate_array,
        fault_plan=plan,
    ).run()
    assert [r[1] for r in out.results] == [1, 2, 3]
    assert all(np.isfinite(r[0]).all() for r in out.results)
    assert out.supervisor.n_invalid == 1
    assert out.supervisor.n_retries == 1


# -- crash faults ----------------------------------------------------------------
def test_crash_fault_rebuilds_pool_and_recovers():
    plan = FaultPlan((FaultPlan.crash(1),))
    sup = _supervise(_double, [1, 2, 3, 4], executor="process", n_workers=2, fault_plan=plan)
    out = sup.run()
    assert out.results == [2, 4, 6, 8]
    assert out.supervisor.n_crashes >= 1
    assert out.supervisor.n_pool_rebuilds >= 1
    assert out.supervisor.n_retries >= 1
    assert sup.policy.n_reassigned >= 1  # the lost unit went back to the policy


def test_pool_broken_between_wait_and_submit_is_rebuilt(monkeypatch):
    """A pool can break after ``wait()`` returned (it is marked broken before
    its futures fail), so the next ``submit`` raises ``BrokenExecutor``: a
    pool loss like any other, not the end of the run."""
    from concurrent.futures import ThreadPoolExecutor
    from concurrent.futures.thread import BrokenThreadPool

    submits = []

    class BreaksOnThirdSubmit(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submits.append(fn)
            if len(submits) == 3:
                raise BrokenThreadPool("broke since the last wait()")
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(
        TaskSupervisor, "_make_pool", lambda self: BreaksOnThirdSubmit(self.n_workers)
    )
    out = _supervise(_double, [1, 2, 3, 4], executor="thread", n_workers=2).run()
    assert out.results == [2, 4, 6, 8]
    assert out.supervisor.n_pool_rebuilds == 1


def test_crash_fault_not_honoured_in_threads():
    # A thread worker calling os._exit would kill the master: the plan must
    # skip disruptive faults outside sandboxed processes.
    plan = FaultPlan((FaultPlan.crash(0), FaultPlan.hang(1, hang_seconds=60.0)))
    out = _supervise(_double, [1, 2, 3], executor="thread", n_workers=2, fault_plan=plan).run()
    assert out.results == [2, 4, 6]
    assert out.supervisor.n_crashes == 0
    assert out.supervisor.n_timeouts == 0


def test_repeated_pool_loss_is_fatal():
    plan = FaultPlan((FaultPlan.crash(0, attempts=(0, 1, 2)),))
    sup = _supervise(
        _double,
        [1, 2],
        executor="process",
        n_workers=2,
        fault_plan=plan,
        max_pool_rebuilds=1,
    )
    with pytest.raises(SupervisorError, match="pool lost"):
        sup.run()


# -- hangs, deadlines and false positives ----------------------------------------
def test_hang_fault_times_out_and_recovers():
    plan = FaultPlan((FaultPlan.hang(1, hang_seconds=60.0),))
    sup = _supervise(
        _double,
        [1, 2, 3],
        executor="process",
        n_workers=2,
        fault_plan=plan,
        task_timeout=0.75,
    )
    t0 = time.monotonic()
    out = sup.run()
    assert out.results == [2, 4, 6]
    assert out.supervisor.n_timeouts >= 1
    assert out.supervisor.n_retries >= 1
    assert time.monotonic() - t0 < 30.0  # the hung worker never blocks shutdown


def test_false_positive_deadline_duplicate_ignored():
    # The worker is slow, not dead: it finishes after being declared lost.
    # The lost dispatch's late completion is dropped; the unit is accepted
    # exactly once, from the lane the policy reassigned it to.
    plan = FaultPlan((FaultPlan.hang(0, hang_seconds=1.0),))
    sup = _supervise(
        _double,
        [5, 6],
        executor="process",
        n_workers=2,
        fault_plan=plan,
        task_timeout=0.4,
    )
    out = sup.run()
    assert out.results == [10, 12]
    assert out.supervisor.n_timeouts >= 1
    attempts = out.supervisor.attempts
    accepted = [a for a in attempts if a.task_index == 0 and a.outcome.endswith("ok")]
    assert len(accepted) == 1
    lost = next(a for a in attempts if a.task_index == 0 and a.outcome == "timeout")
    assert (lost.attempt, accepted[0].attempt) == (0, 1)


def test_adaptive_deadline_from_observed_durations():
    """One deadline rule: the same duration list gives the same deadline
    through the pool's supervisor, the TCP master and the constants the
    simulator's ``default_worker_timeout`` prices its worst case with."""
    from repro.net import MasterServer
    from repro.runtime.options import TIMEOUT_FACTOR, TIMEOUT_MARGIN
    from repro.sched import make_policy

    sup = _supervise(_double, [1], executor="serial")
    master = MasterServer(make_policy("single", 1), "echo", lambda a, lane: None)
    assert sup.core.deadline() is None  # no observations, no fixed timeout
    assert master.core.deadline() is None
    for durations in ([2.0], [0.5, 2.0, 1.25], [1e-3]):
        sup.core.durations[:] = master.core.durations[:] = durations
        expected = TIMEOUT_FACTOR * max(durations) + TIMEOUT_MARGIN
        assert deadline(durations) == expected
        assert sup.core.deadline() == master.core.deadline() == expected
    assert deadline([2.0]) == pytest.approx(7.0)
    # before any observation the startup window stands in; a fixed deadline wins
    assert RecoveryOptions(startup_timeout=9.0).deadline([]) == 9.0
    fixed = _supervise(_double, [1], executor="serial", task_timeout=42.0)
    assert fixed.core.deadline() == MasterCore(None, None, RecoveryOptions(task_timeout=42.0)).deadline()
    assert fixed.core.deadline() == 42.0


# -- retry exhaustion and degradation --------------------------------------------
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_retry_exhaustion_degrades_to_serial(executor):
    plan = FaultPlan((FaultPlan.raising(1, attempts=(0, 1)),))
    out = _supervise(
        _double, [1, 2, 3], executor=executor, n_workers=2, fault_plan=plan, max_attempts=2,
    ).run()
    assert out.results == [2, 4, 6]
    assert out.supervisor.n_degraded == 1
    assert any(a.outcome == "degraded-ok" for a in out.supervisor.attempts)


def test_degradation_disabled_raises():
    plan = FaultPlan((FaultPlan.raising(0, attempts=(0, 1)),))
    sup = _supervise(
        _double,
        [1],
        executor="serial",
        fault_plan=plan,
        max_attempts=2,
        degrade_serial=False,
    )
    with pytest.raises(SupervisorError, match="unit 0 .* degradation is disabled"):
        sup.run()


def test_poisoned_task_fails_even_serial_fallback():
    # The fault fires on every attempt including the degraded one: the
    # supervisor must report the failure, not loop forever.
    plan = FaultPlan((FaultPlan.raising(0, attempts=tuple(range(10))),))
    sup = _supervise(_double, [1], executor="serial", fault_plan=plan, max_attempts=2)
    with pytest.raises(SupervisorError, match="serial"):
        sup.run()
