"""Tests for the simulation timeline renderer."""

import pytest

from repro.cluster import (
    Compute,
    Machine,
    Recv,
    Send,
    VirtualPVM,
    machine_busy_intervals,
    render_timeline,
)


def _traced_run():
    machines = [Machine("fast", 2.0, 64), Machine("slow", 1.0, 32)]
    pvm = VirtualPVM(machines, sec_per_work_unit=0.01)
    pvm.tracing = True

    def worker(master_tid):
        while True:
            msg = yield Recv()
            if msg.tag == "stop":
                return
            yield Compute(units=msg.payload)
            yield Send(master_tid, 5000, None, tag="done")

    def master(tids):
        for tid in tids:
            yield Send(tid, 100, 500.0, tag="work")
        for _ in tids:
            yield Recv(tag="done")
        for tid in tids:
            yield Send(tid, 10, None, tag="stop")

    tids = [pvm.spawn(worker(3), m.name) for m in machines]
    pvm.spawn(master(tids), "fast", name="master")
    pvm.run()
    return pvm


def test_events_recorded():
    pvm = _traced_run()
    kinds = {e[0] for e in pvm.events}
    assert "compute" in kinds and "send" in kinds


def test_busy_intervals_match_totals():
    pvm = _traced_run()
    intervals = machine_busy_intervals(pvm)
    busy = pvm.cpu_busy_seconds()
    for name, ivals in intervals.items():
        total = sum(e - s for s, e in ivals)
        assert total == pytest.approx(busy[name])


def test_render_timeline_structure():
    pvm = _traced_run()
    text = render_timeline(pvm, width=32)
    lines = text.splitlines()
    assert "virtual time" in lines[0]
    assert any(line.strip().startswith("fast") for line in lines)
    assert any(line.strip().startswith("slow") for line in lines)
    assert "ethernet" in lines[-1]
    assert "msgs" in lines[-1]
    # The slow machine computes for the full horizon -> mostly '#'.
    slow_line = next(line for line in lines if line.strip().startswith("slow"))
    assert slow_line.count("#") > 20


def test_render_timeline_requires_tracing():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)

    def work():
        yield Compute(units=10)

    pvm.spawn(work(), "m")
    pvm.run()
    with pytest.raises(ValueError, match="tracing"):
        render_timeline(pvm)


def test_render_timeline_width_validation():
    pvm = _traced_run()
    with pytest.raises(ValueError):
        render_timeline(pvm, width=4)


def test_strategy_trace_integration(tiny_oracle):
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
        trace=True,
    )
    assert out.timeline is not None
    assert "ethernet" in out.timeline
    # Untraced runs carry no timeline.
    out2 = simulate(
        "frame-division-fc",
        tiny_oracle,
        ncsu_testbed(),
        RenderFarmConfig(),
        sec_per_work_unit=1e-4,
        thrash=ThrashModel(alpha=0.0),
    )
    assert out2.timeline is None
