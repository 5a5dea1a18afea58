"""Real local parallel execution of the paper's master/worker decompositions."""

from .faults import FaultInjected, FaultPlan, FaultSpec, WorkerKill
from .local import FarmResult, LocalRenderFarm
from .options import FarmOptions, RecoveryOptions, deadline
from .spec import AnimationSpec
from .supervisor import SupervisorError, SupervisorOutcome, TaskAttempt, TaskSupervisor

__all__ = [
    "AnimationSpec",
    "FarmOptions",
    "FarmResult",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "LocalRenderFarm",
    "RecoveryOptions",
    "SupervisorError",
    "SupervisorOutcome",
    "TaskAttempt",
    "TaskSupervisor",
    "WorkerKill",
    "deadline",
]
