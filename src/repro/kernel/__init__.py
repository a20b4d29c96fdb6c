"""Real-time kernel: tasks, FP preemptive scheduling, budgets, RTA.

Substitutes the Artk68-FT kernel of ref. [8]; the scheduler runs on the
discrete-event simulator and drives temporal error masking for critical
tasks (see :mod:`repro.core.tem`).
"""

from .analysis import (
    AnalysisResult,
    ResponseTimeResult,
    analyse,
    higher_priority,
    jobs_in,
    response_time,
    utilization,
)
from .budget import DEFAULT_BUDGET_FACTOR, ExecutionBudget, budget_for_wcet
from .cores import CoreSet, PlacementPolicy
from .ft_analysis import (
    FaultHypothesis,
    analyse_ft,
    analyse_ft_mc,
    analyse_mk,
    analyse_mk_mc,
    ft_response_time,
    ft_response_time_mc,
    max_tolerable_faults,
    mk_absorbable_misses,
    mk_max_tolerable_faults,
    mk_response_time,
    mk_response_time_mc,
    partition_tasks,
    recovery_cost,
    tem_cost,
    tem_utilization,
)
from .priority import assign_criticality_monotonic
from .resources import (
    CriticalSection,
    ResourceManager,
    ResourceProtocol,
    ResourceStats,
    validate_sections,
)
from .scheduler import Job, JobState, JobStats, KernelConfig, Scheduler
from .task import (
    CallableExecutable,
    CopyPlan,
    Criticality,
    Executable,
    MachineExecutable,
    MKWindow,
    Result,
    TaskSpec,
    TemMode,
    WeaklyHardConstraint,
    validate_task_set,
)

__all__ = [
    "AnalysisResult",
    "CallableExecutable",
    "CopyPlan",
    "CoreSet",
    "CriticalSection",
    "Criticality",
    "DEFAULT_BUDGET_FACTOR",
    "Executable",
    "ExecutionBudget",
    "FaultHypothesis",
    "Job",
    "JobState",
    "JobStats",
    "KernelConfig",
    "MKWindow",
    "MachineExecutable",
    "PlacementPolicy",
    "ResourceManager",
    "ResourceProtocol",
    "ResourceStats",
    "ResponseTimeResult",
    "Result",
    "Scheduler",
    "TaskSpec",
    "TemMode",
    "WeaklyHardConstraint",
    "analyse",
    "analyse_ft",
    "analyse_ft_mc",
    "analyse_mk",
    "analyse_mk_mc",
    "assign_criticality_monotonic",
    "budget_for_wcet",
    "ft_response_time",
    "ft_response_time_mc",
    "higher_priority",
    "jobs_in",
    "max_tolerable_faults",
    "mk_absorbable_misses",
    "mk_max_tolerable_faults",
    "mk_response_time",
    "mk_response_time_mc",
    "partition_tasks",
    "recovery_cost",
    "response_time",
    "tem_cost",
    "tem_utilization",
    "utilization",
    "validate_sections",
    "validate_task_set",
]
