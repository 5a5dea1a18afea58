"""Every fault schedule of a small run, on the pool's real code path.

The serial executor runs the supervisor's one loop with each task completed
inline, so it is deterministic and fast enough to enumerate every
:class:`FaultPlan` over three units and two attempts each: every
``(unit, attempt)`` slot either raises, returns corrupted pixels, or runs
clean — 3**6 = 729 plans.  Each is run under a demand-driven policy and under
two adaptive chains cut into 1-frame segments (whose lost lanes are retired
and whose chains are requeued fresh), with serial degradation on and off.
"""

import itertools

import numpy as np
import pytest

from repro.runtime import FarmOptions, FaultPlan, FaultSpec
from repro.runtime.supervisor import SupervisorError, TaskSupervisor
from repro.sched import AdaptiveChainPolicy, Chain, DemandDrivenPolicy
from repro.telemetry import InMemorySink, Telemetry

pytestmark = pytest.mark.usefixtures("no_leaks")

N_UNITS = 3
MAX_ATTEMPTS = 2
SLOTS = [(u, k) for u in range(N_UNITS) for k in range(MAX_ATTEMPTS)]
PLANS = list(itertools.product((None, "raise", "corrupt"), repeat=len(SLOTS)))


def _pixels(args):
    """Toy task: one finite 'pixel' array per unit."""
    return (np.full(2, float(args)),)


def _finite(args, result) -> bool:
    return bool(np.isfinite(result[0]).all())


POLICIES = {
    "demand": lambda: DemandDrivenPolicy([(i, 0, 1) for i in range(N_UNITS)]),
    "adaptive": lambda: AdaptiveChainPolicy(
        [Chain(-1, 0, 2), Chain(-1, 2, 3)], use_coherence=True, segment_frames=1
    ),
}


def _run(policy_name: str, kinds: tuple, degrade: bool):
    plan = FaultPlan(
        [FaultSpec(kind, u, (k,)) for (u, k), kind in zip(SLOTS, kinds) if kind is not None]
    )
    sink = InMemorySink()
    policy = POLICIES[policy_name]()
    sup = TaskSupervisor(
        policy,
        _pixels,
        lambda a, lane: a.region_index * 10 + a.frame0,
        FarmOptions(
            n_workers=2, executor="serial", fault_plan=plan, max_attempts=MAX_ATTEMPTS,
            degrade_serial=degrade, telemetry=Telemetry(sinks=(sink,)),
        ),
        validate=_finite,
    )
    try:
        out = sup.run()
    except SupervisorError:
        out = None
    return policy, out, [r["attrs"] for r in sink.events if r["name"] == "obs.flight"]


def _expected(kinds: tuple):
    """``(faults that fire, by kind; units that fail every attempt)``: a
    unit's attempt k runs only if its attempts before k all failed."""
    fired = {"raise": 0, "corrupt": 0}
    exhausted = 0
    for u in range(N_UNITS):
        for k in range(MAX_ATTEMPTS):
            kind = kinds[u * MAX_ATTEMPTS + k]
            if kind is None:
                break
            fired[kind] += 1
        else:
            exhausted += 1
    return fired, exhausted


@pytest.mark.parametrize("degrade", [True, False], ids=["degrade", "no-degrade"])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_every_fault_schedule(policy_name, degrade):
    for kinds in PLANS:
        policy, out, flights = _run(policy_name, kinds, degrade)
        fired, exhausted = _expected(kinds)
        where = f"{policy_name} plan={kinds} degrade={degrade}"
        if not degrade and exhausted:
            assert out is None, where  # the run raised SupervisorError
            continue
        assert out is not None and policy.finished, where
        # every unit accepted exactly once
        accepted = [a.task_index for a in out.supervisor.attempts if a.outcome.endswith("ok")]
        assert sorted(accepted) == list(range(N_UNITS)), where
        assert len(out.results) == N_UNITS, where
        # no lane is accepted after its loss
        lost = set()
        for f in flights:
            assert f["worker"] not in lost, where
            if not f["outcome"].endswith("ok"):
                lost.add(f["worker"])
        # the recovery counts are the plan's faults, by kind
        rec = out.supervisor.recovery
        assert rec["crashes"] == fired["raise"] and rec["invalid"] == fired["corrupt"], where
        assert rec["retries"] == fired["raise"] + fired["corrupt"], where
        assert rec["timeouts"] == 0 and rec["degraded"] == exhausted, where
        assert policy.n_reassigned == fired["raise"] + fired["corrupt"], where
        # the same plan dispatches the same way
        again, _out, _flights = _run(policy_name, kinds, degrade)
        assert again.log == policy.log, where
