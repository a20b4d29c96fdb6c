"""Experiment E7 — fault-tolerant schedulability and slack reservation
(Section 2.8).

No table of numbers appears in the paper for this section, but the claims
are concrete and checkable:

* TEM doubles the fault-free demand of critical tasks;
* slack must be reserved a priori for a bounded number of recoveries;
* a fault-tolerant schedulability test can *guarantee* deadlines under the
  anticipated fault load.

This driver analyses a representative brake-by-wire wheel-node task set and
reports, per task: plain RTA response time, FT-RTA response time under
TEM + F faults, the remaining slack, and the maximum number of tolerable
recoveries the schedule's slack buys.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..kernel.analysis import (
    FaultHypothesis,
    analyse,
    max_tolerable_faults,
    tem_utilization,
    utilization,
)
from ..kernel.priority import assign_criticality_monotonic
from ..kernel.task import Criticality, TaskSpec
from ..units import ms, us
from .asciiplot import render_table


def wheel_node_task_set() -> List[TaskSpec]:
    """A realistic wheel-node workload (periods/WCETs in the BBW range)."""
    tasks = [
        TaskSpec(name="brake_control", period=ms(5), wcet=us(600), priority=0,
                 criticality=Criticality.CRITICAL),
        TaskSpec(name="speed_sensing", period=ms(10), wcet=us(400), priority=1,
                 criticality=Criticality.CRITICAL),
        TaskSpec(name="status_report", period=ms(20), wcet=us(300), priority=2,
                 criticality=Criticality.CRITICAL),
        TaskSpec(name="diagnostics", period=ms(100), wcet=ms(2), priority=3,
                 criticality=Criticality.NON_CRITICAL),
        TaskSpec(name="logging", period=ms(200), wcet=ms(3), priority=4,
                 criticality=Criticality.NON_CRITICAL),
    ]
    return assign_criticality_monotonic(tasks)


@dataclasses.dataclass
class SchedulabilityRow:
    """Analysis results for one task."""

    task: str
    wcet: int
    deadline: int
    plain_response: Optional[int]
    ft_response: Optional[int]
    slack: Optional[int]


@dataclasses.dataclass
class SchedulabilityResult:
    """Task-set level analysis summary."""

    rows: List[SchedulabilityRow]
    plain_utilization: float
    tem_utilization: float
    schedulable_plain: bool
    schedulable_ft: bool
    max_faults_tolerated: int
    hypothesis: FaultHypothesis

    def render(self) -> str:
        table = render_table(
            ["task", "C", "D", "R (plain)", "R (TEM+F faults)", "slack"],
            [
                (
                    row.task,
                    row.wcet,
                    row.deadline,
                    row.plain_response if row.plain_response is not None else "diverged",
                    row.ft_response if row.ft_response is not None else "diverged",
                    row.slack if row.slack is not None else "-",
                )
                for row in self.rows
            ],
            title=(
                f"Response-time analysis (F={self.hypothesis.max_faults} "
                "recoveries per busy period)"
            ),
        )
        summary = (
            f"utilization: plain {self.plain_utilization:.3f}, with TEM "
            f"{self.tem_utilization:.3f}; schedulable: plain={self.schedulable_plain}, "
            f"fault-tolerant={self.schedulable_ft}; max tolerable recoveries: "
            f"{self.max_faults_tolerated}"
        )
        return table + "\n" + summary


def compute_schedulability(
    tasks: Optional[Sequence[TaskSpec]] = None,
    faults: int = 1,
    comparison_cost: int = us(20),
) -> SchedulabilityResult:
    """Run plain and fault-tolerant RTA on the (default) wheel-node set."""
    task_list = list(tasks) if tasks is not None else wheel_node_task_set()
    hypothesis = FaultHypothesis(max_faults=faults)
    plain = analyse(task_list)
    ft = analyse(task_list, hypothesis, comparison_cost=comparison_cost)
    rows = []
    for task in sorted(task_list, key=lambda t: t.priority):
        plain_r = plain.response_time(task.name)
        ft_r = ft.response_time(task.name)
        rows.append(
            SchedulabilityRow(
                task=task.name,
                wcet=task.wcet,
                deadline=task.relative_deadline,
                plain_response=plain_r,
                ft_response=ft_r,
                slack=(task.relative_deadline - ft_r) if ft_r is not None else None,
            )
        )
    return SchedulabilityResult(
        rows=rows,
        plain_utilization=utilization(task_list),
        tem_utilization=tem_utilization(task_list, comparison_cost),
        schedulable_plain=plain.schedulable,
        schedulable_ft=ft.schedulable,
        max_faults_tolerated=max_tolerable_faults(task_list, comparison_cost),
        hypothesis=hypothesis,
    )


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="schedulability",
    index="E7",
    title="Fault-tolerant schedulability",
    anchors=("Section 3.3 (scheduling for temporal error masking)",),
)
def _experiment(ctx) -> SchedulabilityResult:
    return compute_schedulability()
