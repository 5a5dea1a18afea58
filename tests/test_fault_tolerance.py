"""Tests for machine failures, Recv timeouts and the deadline-sweeping master."""

import pytest

from repro.cluster import (
    Compute,
    Machine,
    Recv,
    Send,
    ThrashModel,
    VirtualPVM,
    ncsu_testbed,
)
from repro.parallel import RenderFarmConfig
from repro.sched import SimTransport, simulate
from repro.telemetry import InMemorySink, Telemetry

SPU = 1e-4
NO_THRASH = ThrashModel(alpha=0.0)
CFG = RenderFarmConfig()


# -- PVM failure primitives ----------------------------------------------------
def test_recv_timeout_fires():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)
    got = []

    def waiter():
        msg = yield Recv(timeout=2.0)
        got.append(msg)

    pvm.spawn(waiter(), "m")
    end = pvm.run()
    assert got == [None]
    assert end == pytest.approx(2.0)


def test_recv_timeout_cancelled_by_message():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)
    got = []

    def waiter():
        msg = yield Recv(timeout=5.0)
        got.append(msg.payload if msg else None)
        # A second recv must not be woken by the first recv's stale timer.
        msg2 = yield Recv(timeout=10.0)
        got.append(msg2)

    def sender(dst):
        yield Compute(units=100)  # 1s
        yield Send(dst, 10, "hello")

    wtid = pvm.spawn(waiter(), "m")
    pvm.spawn(sender(wtid), "m")
    pvm.run()
    assert got == ["hello", None]


def test_recv_negative_timeout_rejected():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)

    def bad():
        yield Recv(timeout=-1.0)

    pvm.spawn(bad(), "m")
    with pytest.raises(ValueError):
        pvm.run()


def test_fail_machine_kills_tasks_and_drops_messages():
    machines = [Machine("a", 1.0, 32), Machine("b", 1.0, 32)]
    pvm = VirtualPVM(machines, sec_per_work_unit=0.01)
    finished = []

    def victim():
        yield Compute(units=1000)  # 10s, but the machine dies at t=1
        finished.append("victim")

    def survivor(dead_tid):
        yield Compute(units=100)
        yield Send(dead_tid, 10, "for the dead")  # dropped silently
        finished.append("survivor")

    vtid = pvm.spawn(victim(), "a")
    pvm.spawn(survivor(vtid), "b")
    pvm.fail_machine("a", 1.0)
    pvm.run()  # must not deadlock despite the dead task
    assert finished == ["survivor"]
    assert pvm.task(vtid).dead
    assert not pvm.task(vtid).finished


def test_fail_unknown_machine_rejected():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)
    with pytest.raises(KeyError):
        pvm.fail_machine("ghost", 1.0)


# -- fault-tolerant strategy ----------------------------------------------------
@pytest.fixture(scope="module")
def machines():
    return ncsu_testbed()


def _sim(strategy, oracle, machines, **kw):
    return simulate(
        strategy, oracle, machines, CFG, sec_per_work_unit=SPU, thrash=NO_THRASH, **kw
    )


def _ft(oracle, machines, **kw):
    return _sim("frame-division-fc-ft", oracle, machines, **kw)


def test_ft_clean_run_completes_everything(tiny_oracle, machines):
    out = _ft(tiny_oracle, machines)
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    # Without failures nothing is re-executed: ray total equals a single
    # coherent chain decomposed over blocks (plus any tail-steal restarts).
    assert out.total_rays >= tiny_oracle.total_coherent_rays()


def test_ft_clean_run_is_competitive(tiny_oracle, machines):
    base = _sim("frame-division-fc", tiny_oracle, machines)
    out = _ft(tiny_oracle, machines)
    assert out.total_time < 2.0 * base.total_time


def test_ft_survives_one_failure(tiny_oracle, machines):
    clean = _ft(tiny_oracle, machines)
    out = _ft(
        tiny_oracle, machines, failures=[("indigo2-100", clean.total_time * 0.3)]
    )
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    # The dead machine's work was redone: at least as many rays, more time.
    assert out.total_rays >= clean.total_rays
    assert out.total_time > clean.total_time * 0.9


def test_ft_survives_two_failures(tiny_oracle, machines):
    clean = _ft(tiny_oracle, machines)
    out = _ft(
        tiny_oracle,
        machines,
        failures=[
            ("indigo2-100", clean.total_time * 0.2),
            ("indigo-100", clean.total_time * 0.4),
        ],
    )
    assert len(out.frame_completion_times) == tiny_oracle.n_frames


def test_ft_only_master_machine_survives(tiny_oracle, machines):
    """Both slave machines die almost immediately: the worker co-located
    with the master grinds through the entire animation alone."""
    out = _ft(
        tiny_oracle,
        machines,
        failures=[("indigo2-100", 0.05), ("indigo-100", 0.05)],
    )
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    busy = out.machine_busy_seconds
    # Essentially all the work ran on the surviving machine.
    assert busy["indigo2-200"] > 10 * max(busy["indigo2-100"], busy["indigo-100"])


def test_ft_master_machine_death_is_fatal(tiny_oracle, machines):
    """If the master's own machine dies, the surviving workers are stranded
    waiting for assignments — the run fails loudly with DeadlockError (a
    single-master design has a single point of failure; the paper's PVM
    master was exactly that)."""
    from repro.cluster import DeadlockError

    with pytest.raises(DeadlockError):
        _ft(tiny_oracle, machines, failures=[("indigo2-200", 0.05)])


def test_ft_deterministic(tiny_oracle, machines):
    a = _ft(tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    b = _ft(tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    assert a.total_time == b.total_time
    assert a.total_rays == b.total_rays


# -- fault-tolerant sequence division --------------------------------------------
def _seq_ft(oracle, machines, **kw):
    return _sim("sequence-division-fc-ft", oracle, machines, **kw)


def test_seq_ft_clean_run_completes_everything(tiny_oracle, machines):
    out = _seq_ft(tiny_oracle, machines)
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    assert out.strategy == "sequence-division+fc+ft"


def test_seq_ft_survives_one_failure(tiny_oracle, machines):
    clean = _seq_ft(tiny_oracle, machines)
    out = _seq_ft(
        tiny_oracle, machines, failures=[("indigo2-100", clean.total_time * 0.3)]
    )
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    # The dead machine's frames were re-rendered from a fresh chain.
    assert out.total_rays >= clean.total_rays
    assert out.total_time > clean.total_time * 0.9


def test_seq_ft_master_machine_death_is_fatal(tiny_oracle, machines):
    from repro.cluster import DeadlockError

    with pytest.raises(DeadlockError):
        _seq_ft(tiny_oracle, machines, failures=[("indigo2-200", 0.05)])


def test_seq_ft_deterministic(tiny_oracle, machines):
    a = _seq_ft(tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    b = _seq_ft(tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    assert a.total_time == b.total_time
    assert a.total_rays == b.total_rays


# -- the -ft strategies are the plain policies under a deadline -------------------
FT_STRATEGIES = ("frame-division-fc-ft", "sequence-division-fc-ft")


def _transport(strategy, oracle, machines, **kw):
    return SimTransport.for_strategy(
        strategy, oracle, machines, CFG, sec_per_work_unit=SPU, thrash=NO_THRASH, **kw
    )


def _drill(strategy, oracle, machines, failures):
    """Run under ``failures``; return the outcome, the policy and every
    ``(worker, assignment)`` the master accepted, in order — recorded at
    ``policy.on_result``, the one place a unit is accepted."""
    transport = _transport(strategy, oracle, machines, failures=failures)
    policy, accepted = transport.policy, []
    on_result = policy.on_result

    def recording(worker, a):
        accepted.append((worker, a))
        on_result(worker, a)

    policy.on_result = recording
    return transport.run(), policy, accepted


def _death_after_last_task(strategy, oracle, machines):
    """A slave crash timed after the slave returned its last result of the
    clean run but before the run's last result: it dies with nothing to lose."""
    sink = InMemorySink()
    tel = Telemetry(sinks=[sink])
    _sim(strategy, oracle, machines, telemetry=tel)
    tel.close()
    last_end: dict[str, float] = {}
    for e in sink.events:
        if e.get("name") == "task":
            worker = e["attrs"]["worker"]
            last_end[worker] = max(last_end.get(worker, 0.0), e["t"] + e["dur"])
    victim = min((m.name for m in machines[1:]), key=last_end.__getitem__)
    run_end = max(last_end.values())
    assert last_end[victim] < run_end
    return [(victim, (last_end[victim] + run_end) / 2.0)]


def _deaths_at(*deaths):
    """Crashes at fractions of the clean run's total time."""

    def failures(strategy, oracle, machines):
        total = _sim(strategy, oracle, machines).total_time
        return [(name, total * frac) for name, frac in deaths]

    return failures


DRILLS = {
    "no failure": _deaths_at(),
    "one slave": _deaths_at(("indigo2-100", 0.3)),
    "both slaves": _deaths_at(("indigo2-100", 0.2), ("indigo-100", 0.4)),
    "slave already finished": _death_after_last_task,
}


@pytest.mark.parametrize("strategy", FT_STRATEGIES)
@pytest.mark.parametrize("scenario", DRILLS)
def test_ft_drill_exactly_once(strategy, scenario, tiny_oracle, machines):
    failures = DRILLS[scenario](strategy, tiny_oracle, machines)
    out, policy, accepted = _drill(strategy, tiny_oracle, machines, failures)
    units = [(a.region_index, f) for _w, a in accepted for f in range(a.frame0, a.frame1)]
    assert policy.finished
    assert len(units) == len(set(units)) == policy.total_units
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    # A machine died holding work iff something dispatched to its worker
    # (the master's lanes are the machine names) never came back; each such
    # death is one timeout in the master's recovery counts.
    returned = {a.seq for _w, a in accepted}
    holding = [
        name for name, _at in failures
        if any(a.worker == name and a.seq not in returned for a in policy.log)
    ]
    assert out.recovery["timeouts"] == policy.n_reassigned == len(holding)
    assert out.recovery == {**out.recovery, "crashes": 0, "invalid": 0, "degraded": 0}
    if scenario == "slave already finished":
        assert holding == []
    out2, _policy2, accepted2 = _drill(strategy, tiny_oracle, machines, failures)
    assert out2 == out
    assert [a.key() for _w, a in accepted2] == [a.key() for _w, a in accepted]


@pytest.mark.parametrize("strategy", FT_STRATEGIES)
def test_ft_clean_run_is_the_plain_policy(strategy, tiny_oracle, machines):
    """No failure: the deadline never fires, so the -ft run dispatches the
    same assignments and fires the same rays as the strategy it supervises."""
    ft = _transport(strategy, tiny_oracle, machines)
    plain = _transport(strategy.removesuffix("-ft"), tiny_oracle, machines)
    out_ft, out_plain = ft.run(), plain.run()
    assert [a.key() for a in ft.policy.log] == [a.key() for a in plain.policy.log]
    assert out_ft.total_rays == out_plain.total_rays
    assert out_ft.recovery["timeouts"] == out_ft.recovery["retries"] == 0


def test_deadline_options_rejected_without_deadline(tiny_oracle, machines):
    with pytest.raises(ValueError, match="frame-division-fc-ft"):
        _sim("frame-division-fc", tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    with pytest.raises(ValueError, match="sequence-division-fc-ft"):
        _sim("sequence-division-fc", tiny_oracle, machines, worker_timeout=10.0)
