"""Fault-tolerant fixed-priority response-time analysis (Section 2.8).

Section 2.8: "To allow a failed task to re-execute without causing other
tasks to miss their deadlines, extra time (slack) must be reserved *a
priori* and be accounted for in a schedulability test.  The amount of extra
time needed depends on the number and type of faults anticipated."

One fixed point answers every variant of that test.  It is classic
response-time analysis for preemptive fixed-priority scheduling (Joseph &
Pandya / Audsley et al.; Burns & Wellings [6]) with the
Punnekkat/Burns-style fault-tolerant extension, adapted to TEM's costs::

    R_i = C_i' + (sum_{j in hp(i)} ceil(R_i / T_j) C_j'
                  + recoveries(R_i) * max_{k in hep(i)} recovery_cost(k)) // M

* **Demand** ``C'``: each task's WCET when no fault hypothesis is given
  (plain one-copy RTA); otherwise :func:`tem_cost` — a critical task runs
  two copies plus a comparison.
* **Recoveries**: the faults the hypothesis puts into the interval
  (:meth:`FaultHypothesis.faults_in`) minus those the tasks' own
  weakly-hard (m,k) miss budgets absorb as controlled misses
  (:func:`mk_absorbable_misses`, zero for hard tasks), never below zero.
* **Placement** ``M``: partitioned placement analyses a task's partition
  as one core (``M = 1``); global placement shares the interference and
  recovery demand among the node's cores (the busy-period argument: a job
  is delayed only while all ``M`` cores run equal-or-higher-priority work).

The (m,k) recovery term is non-monotone in ``R`` (the budgets grow with
the interval), so the iteration may oscillate instead of converging from
below; any ``R`` with ``demand(R) <= R`` is a sound bound, and that is the
one convergence rule.  With hard tasks the demand is monotone and the rule
fires only at ``demand(R) == R``, the least fixed point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SchedulingError
from .cores import PlacementPolicy
from .task import TaskSpec

#: The iteration gives up (the response time diverged) once the candidate
#: exceeds this multiple of the task's deadline.
DIVERGENCE_FACTOR = 100


@dataclasses.dataclass(frozen=True)
class ResponseTimeResult:
    """Outcome of RTA for one task."""

    task: str
    response_time: Optional[int]  # None when the iteration diverged
    deadline: int

    @property
    def schedulable(self) -> bool:
        return self.response_time is not None and self.response_time <= self.deadline


@dataclasses.dataclass(frozen=True)
class AnalysisResult:
    """RTA outcome for a whole task set."""

    per_task: List[ResponseTimeResult]

    @property
    def schedulable(self) -> bool:
        """True iff every task meets its deadline."""
        return all(r.schedulable for r in self.per_task)

    def response_time(self, task: str) -> Optional[int]:
        for result in self.per_task:
            if result.task == task:
                return result.response_time
        raise SchedulingError(f"unknown task {task!r} in analysis result")


@dataclasses.dataclass(frozen=True)
class FaultHypothesis:
    """Anticipated fault load for slack dimensioning.

    Attributes
    ----------
    max_faults:
        Number of recovery executions (F) to tolerate ...
    window:
        ... within any window of this length (ticks); ``None`` means per
        busy period (the classic "F faults" assumption).
    """

    max_faults: int = 1
    window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_faults < 0:
            raise ConfigurationError("max_faults must be non-negative")
        if self.window is not None and self.window <= 0:
            raise ConfigurationError("fault window must be positive")

    def faults_in(self, interval: int) -> int:
        """Worst-case recoveries hitting a window of length *interval*."""
        if self.window is None:
            return self.max_faults
        return math.ceil(interval / self.window) * self.max_faults


def higher_priority(tasks: Sequence[TaskSpec], task: TaskSpec) -> List[TaskSpec]:
    """Tasks with strictly higher priority than *task* (lower number)."""
    return [t for t in tasks if t.priority < task.priority]


def jobs_in(task: TaskSpec, interval: int) -> int:
    """Worst-case number of *task* jobs with releases inside any interval
    of the given length — the ``ceil(w / T)`` bound of the interference
    term, and the job count fed into
    :meth:`~repro.kernel.task.WeaklyHardConstraint.max_misses_in`."""
    if interval <= 0:
        return 0
    return math.ceil(interval / task.period)


def tem_cost(task: TaskSpec, comparison_cost: int = 0) -> int:
    """Fault-free TEM demand of one job: two copies plus the comparison."""
    if task.is_critical:
        return 2 * task.wcet + comparison_cost
    return task.wcet


def recovery_cost(task: TaskSpec, comparison_cost: int = 0) -> int:
    """Extra demand of one recovery: one more copy plus a re-comparison."""
    if task.is_critical:
        return task.wcet + comparison_cost
    return 0


def mk_absorbable_misses(
    tasks: Sequence[TaskSpec], task: TaskSpec, interval: int
) -> int:
    """Recoveries the (m,k) miss budgets can absorb in a window of length
    *interval* at *task*'s priority level, as controlled misses instead of
    re-executions.

    A recovery can only be skipped if the task it belongs to tolerates
    the resulting miss.  The fault hypothesis does not say *which* task
    the faults strike, so the bound must hold even when every fault hits
    the least tolerant task: the absorbable count is the **minimum**
    weakly-hard allowance over all critical tasks at this or higher
    priority (their recoveries are the ones that can delay *task*).  A
    hard-deadline task in that set — ``weakly_hard`` unset, or the
    degenerate (0, k) — contributes an allowance of zero, which recovers
    the classic analysis exactly.
    """
    hep = [
        t for t in tasks
        if t.priority <= task.priority and t.is_critical
    ]
    if not hep:
        return 0
    allowed = []
    for t in hep:
        if t.weakly_hard is None:
            return 0
        allowed.append(t.weakly_hard.max_misses_in(jobs_in(t, interval)))
    return min(allowed)


def partition_tasks(
    tasks: Sequence[TaskSpec],
    cores: int,
    comparison_cost: int = 0,
) -> List[List[TaskSpec]]:
    """Deterministic task-to-core assignment for partitioned scheduling.

    Tasks with an explicit :attr:`~repro.kernel.task.TaskSpec.core` keep
    their pin (a pin outside the node raises ``ConfigurationError``, as
    the scheduler does); the rest are placed first-fit-decreasing by
    TEM-inflated utilization (a standard bin-packing heuristic), with ties
    broken by registration order so the assignment is reproducible.  With
    one core everything lands on core 0 and each partition *is* the input
    set.
    """
    if cores < 1:
        raise ConfigurationError("a node needs at least one core")
    partitions: List[List[TaskSpec]] = [[] for _ in range(cores)]
    load = [0.0] * cores
    floating: List[TaskSpec] = []
    for task in tasks:
        if task.core is not None:
            if task.core >= cores:
                raise ConfigurationError(
                    f"task {task.name!r} is pinned to core {task.core} but "
                    f"the node has only {cores} core(s)"
                )
            partitions[task.core].append(task)
            load[task.core] += tem_cost(task, comparison_cost) / task.period
        else:
            floating.append(task)
    floating.sort(
        key=lambda t: tem_cost(t, comparison_cost) / t.period, reverse=True
    )
    for task in floating:
        core = min(range(cores), key=lambda c: (load[c], c))
        partitions[core].append(task)
        load[core] += tem_cost(task, comparison_cost) / task.period
    # Preserve priority-analysis preconditions: keep each partition in the
    # original (validated) task-set order.
    order = {t.name: i for i, t in enumerate(tasks)}
    for partition in partitions:
        partition.sort(key=lambda t: order[t.name])
    return partitions


def _placed(
    tasks: Sequence[TaskSpec],
    cores: int,
    placement: PlacementPolicy,
    comparison_cost: int,
) -> Tuple[Dict[str, Sequence[TaskSpec]], int]:
    """Each task's interfering set (by name) and the core count sharing
    its interference: its partition and 1 when partitioned, the whole set
    and *cores* when global."""
    if placement is PlacementPolicy.PARTITIONED:
        partitions = partition_tasks(tasks, cores, comparison_cost)
        return {t.name: p for p in partitions for t in p}, 1
    return {t.name: tasks for t in tasks}, cores


def _fixed_point(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: Optional[FaultHypothesis],
    cores: int,
    comparison_cost: int,
) -> Optional[int]:
    """The module docstring's iteration over one interfering set."""
    if hypothesis is None:
        demand = {t.name: t.wcet for t in tasks}
        worst_recovery = 0
    else:
        demand = {t.name: tem_cost(t, comparison_cost) for t in tasks}
        worst_recovery = max(
            recovery_cost(t, comparison_cost)
            for t in tasks if t.priority <= task.priority
        )
    own = demand[task.name]
    hp = higher_priority(tasks, task)
    bound = task.relative_deadline * DIVERGENCE_FACTOR
    r = own
    while True:
        recoveries = 0
        if hypothesis is not None:
            recoveries = max(
                0, hypothesis.faults_in(r) - mk_absorbable_misses(tasks, task, r)
            )
        interference = sum(math.ceil(r / t.period) * demand[t.name] for t in hp)
        total = own + (interference + recoveries * worst_recovery) // cores
        if total <= r:
            return r
        if total > bound:
            return None
        r = total


def response_time(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: Optional[FaultHypothesis] = None,
    cores: int = 1,
    placement: PlacementPolicy = PlacementPolicy.PARTITIONED,
    comparison_cost: int = 0,
) -> Optional[int]:
    """Worst-case response time of *task* in *tasks* on a *cores*-core node.

    Plain one-copy RTA when *hypothesis* is None; TEM demand plus the
    recoveries of *hypothesis* the tasks' (m,k) budgets cannot absorb
    otherwise.  Returns None when the iteration diverges (unschedulable by
    a wide margin).
    """
    placed, sharing = _placed(tasks, cores, placement, comparison_cost)
    if task.name not in placed:
        raise SchedulingError(f"task {task.name!r} not in the analysed set")
    return _fixed_point(placed[task.name], task, hypothesis, sharing, comparison_cost)


def analyse(
    tasks: Sequence[TaskSpec],
    hypothesis: Optional[FaultHypothesis] = None,
    cores: int = 1,
    placement: PlacementPolicy = PlacementPolicy.PARTITIONED,
    comparison_cost: int = 0,
) -> AnalysisResult:
    """:func:`response_time` of every task, partitioning the set once."""
    if not tasks:
        raise SchedulingError("cannot analyse an empty task set")
    placed, sharing = _placed(tasks, cores, placement, comparison_cost)
    return AnalysisResult(per_task=[
        ResponseTimeResult(
            task=t.name,
            response_time=_fixed_point(
                placed[t.name], t, hypothesis, sharing, comparison_cost
            ),
            deadline=t.relative_deadline,
        )
        for t in tasks
    ])


def max_tolerable_faults(
    tasks: Sequence[TaskSpec],
    comparison_cost: int = 0,
    ceiling: int = 64,
) -> int:
    """Largest F such that the set stays schedulable with F recoveries
    per busy period — how much fault resilience the reserved slack (and
    any (m,k) miss budgets) buys.

    Returns -1 when the set is unschedulable even fault-free (F = 0).
    """
    best = -1
    for f in range(ceiling + 1):
        hypothesis = FaultHypothesis(max_faults=f)
        if not analyse(tasks, hypothesis, comparison_cost=comparison_cost).schedulable:
            break
        best = f
    return best


def utilization(tasks: Sequence[TaskSpec]) -> float:
    """Total processor utilization sum(C_i / T_i)."""
    return sum(t.wcet / t.period for t in tasks)


def tem_utilization(tasks: Sequence[TaskSpec], comparison_cost: int = 0) -> float:
    """Fault-free utilization with TEM doubling applied."""
    return sum(tem_cost(t, comparison_cost) / t.period for t in tasks)
