"""Transport-agnostic master/worker scheduling (the paper's Section 4 brain).

The Table-1 partitioning schemes are *policies* — decisions about which
(region, frame-range) unit a hungry worker should compute next — and the
paper runs the same policies over PVM that our reproduction runs over both
a discrete-event simulator and a real multiprocessing farm.  This package
separates the two concerns:

* :mod:`repro.sched.core` — each policy as a pure state machine
  (``next_assignment`` / ``on_result`` / ``on_worker_lost``) with no I/O,
  no clocks and no knowledge of what executes its assignments, and
  ``STRATEGIES``, the one table of strategy names (Table 1's columns,
  the ablations, the deadline-supervised ``-ft`` pair, object-space);
* :mod:`repro.sched.cost` — the oracle-backed cost model that prices an
  assignment for the simulator (rays, work units, working set, message
  bytes);
* :mod:`repro.sched.master` — ``MasterCore``, the one master: a sans-io
  state machine that owns the policy, each lane's flight and the
  recovery books, the only caller of the policy;
* :mod:`repro.sched.sim` — ``simulate(strategy, oracle, machines)`` and
  the ``SimTransport`` under it, the core's shell over the
  :class:`~repro.cluster.VirtualPVM` discrete-event cluster (the Table-1
  replay path);
* :class:`repro.runtime.supervisor.TaskSupervisor` — its shell over the
  supervised multiprocessing executor (the real farm's pool);
* :mod:`repro.net` — ``TcpTransport`` (re-exported here): its shell over
  real sockets, master + worker daemons on a network of workstations.

Because all transports consume identical policy objects, a simulated run,
a pooled run and a networked run of the same workload produce the same
task-assignment sequence — the equivalence
``tests/test_sched_equivalence.py`` pins down.
"""

from .core import (
    STRATEGIES,
    AdaptiveChainPolicy,
    Assignment,
    Chain,
    DemandDrivenPolicy,
    ObjectSpacePolicy,
    SchedulingPolicy,
    make_policy,
    single_processor_policy,
)
from .cost import AssignmentCost, OracleCostModel
from .master import MasterCore
from .sim import SIM_STRATEGIES, SimTransport, default_worker_timeout, simulate

_NET_NAMES = ("TcpTransport", "MasterServer")


def __getattr__(name: str):
    # The network transport pulls in repro.net, which imports this
    # package's core; loading it on first use keeps `import repro.sched`
    # acyclic and light.
    if name in _NET_NAMES:
        from ..net import master

        return getattr(master, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdaptiveChainPolicy",
    "Assignment",
    "AssignmentCost",
    "Chain",
    "DemandDrivenPolicy",
    "MasterCore",
    "MasterServer",
    "ObjectSpacePolicy",
    "OracleCostModel",
    "SIM_STRATEGIES",
    "STRATEGIES",
    "SchedulingPolicy",
    "SimTransport",
    "TcpTransport",
    "default_worker_timeout",
    "make_policy",
    "simulate",
    "single_processor_policy",
]
