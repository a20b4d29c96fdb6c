"""Experiment drivers regenerating every table and figure (Section 3.4).

One module per paper artefact; ``runner.run_report(config)`` produces the
complete report (``python -m repro`` on the command line).  The
per-experiment index lives in DESIGN.md.
"""

from .ablation_table import AblationResult, compute_ablation_table
from .availability_table import AvailabilityResult, compute_availability_table
from .coverage_table import (
    BRAKE_TASK_CHECKPOINTS,
    BRAKE_TASK_SOURCE,
    CoverageTableResult,
    make_brake_workload,
    run_coverage_campaign,
)
from .figure12 import Figure12Result, compute_figure12, series_rows
from .importance_table import ImportanceResult, compute_importance_table
from .redundancy_table import RedundancyResult, compute_redundancy_table
from .workload_table import WorkloadTableResult, compute_workload_table
from .figure13 import Figure13Result, compute_figure13
from .figure14 import Figure14Result, compute_figure14
from .mttf_table import MttfTableResult, compute_mttf_table
from .schedulability_table import (
    SchedulabilityResult,
    compute_schedulability,
    wheel_node_task_set,
)
from .simulation_study import (
    BrakingComparison,
    MissionOutcome,
    SimulationStudyResult,
    compare_braking_under_faults,
    run_mission_replica,
    run_simulation_study,
)
from .tem_timeline import ScenarioResult, render_scenarios, run_tem_scenarios
from .weakly_hard import (
    WeaklyHardRate,
    WeaklyHardResult,
    mk_fault_payloads,
    mk_mean_jobs_to_violation,
    run_mk_campaign,
    run_weakly_hard_experiment,
)

__all__ = [
    "AblationResult",
    "AvailabilityResult",
    "BRAKE_TASK_CHECKPOINTS",
    "BRAKE_TASK_SOURCE",
    "BrakingComparison",
    "CoverageTableResult",
    "Figure12Result",
    "ImportanceResult",
    "RedundancyResult",
    "WorkloadTableResult",
    "Figure13Result",
    "Figure14Result",
    "MissionOutcome",
    "MttfTableResult",
    "ScenarioResult",
    "SchedulabilityResult",
    "SimulationStudyResult",
    "WeaklyHardRate",
    "WeaklyHardResult",
    "compare_braking_under_faults",
    "compute_ablation_table",
    "compute_availability_table",
    "compute_figure12",
    "compute_importance_table",
    "compute_redundancy_table",
    "compute_workload_table",
    "compute_figure13",
    "compute_figure14",
    "compute_mttf_table",
    "compute_schedulability",
    "make_brake_workload",
    "mk_fault_payloads",
    "mk_mean_jobs_to_violation",
    "render_scenarios",
    "run_coverage_campaign",
    "run_mission_replica",
    "run_mk_campaign",
    "run_simulation_study",
    "run_tem_scenarios",
    "run_weakly_hard_experiment",
    "series_rows",
    "wheel_node_task_set",
]
