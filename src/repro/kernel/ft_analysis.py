"""Fault-tolerant schedulability analysis with TEM slack reservation.

Section 2.8: "To allow a failed task to re-execute without causing other
tasks to miss their deadlines, extra time (slack) must be reserved *a
priori* and be accounted for in a schedulability test.  The amount of extra
time needed depends on the number and type of faults anticipated."

We implement the established fault-tolerant extension of response-time
analysis (Punnekkat/Burns-style), adapted to TEM's cost structure:

* every critical task's *fault-free* demand is already doubled —
  TEM runs two copies plus a comparison:  ``C_i' = 2 C_i + C_cmp``;
* a *fault hypothesis* bounds the number of recovery executions, F, that
  may occur in any window of length ``T_F`` (``T_F = infinity`` means "at
  most F faults per busy period");
* each recovery re-executes one copy of some critical task at a priority
  level that can delay task i — the worst case is the largest recovery cost
  among tasks of equal or higher priority::

      R_i = C_i' + sum_{j in hp(i)} ceil(R_i / T_j) C_j'
                 + faults(R_i) * max_{k in hep(i), k critical} (C_k + C_cmp)

  where ``faults(w) = F`` for the simple hypothesis or
  ``faults(w) = ceil(w / T_F) * F`` for the sliding-window hypothesis.

The analysis answers two questions the paper's kernel needs:

* is the task set schedulable under the fault hypothesis (can the kernel
  *guarantee* recovery)?
* how much slack per window remains for additional recoveries (drives the
  run-time deadline check's optimism)?
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

from ..errors import ConfigurationError, SchedulingError
from .analysis import AnalysisResult, ResponseTimeResult, higher_priority, jobs_in
from .cores import PlacementPolicy
from .task import TaskSpec


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


def ft_response_time(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: FaultHypothesis,
    comparison_cost: int = 0,
    limit_factor: int = 100,
) -> Optional[int]:
    """Worst-case response time of *task* under TEM and the fault hypothesis.

    Returns None when the fixed-point iteration diverges (unschedulable by a
    wide margin).
    """
    base = {t.name: tem_cost(t, comparison_cost) for t in tasks}
    own = base[task.name]
    hp = higher_priority(tasks, task)
    # Worst recovery among tasks at this or higher priority (they can all
    # delay task i's completion).
    hep = [t for t in tasks if t.priority <= task.priority]
    worst_recovery = max((recovery_cost(t, comparison_cost) for t in hep), default=0)
    r = own
    bound = task.relative_deadline * limit_factor
    while True:
        total = (
            own
            + sum(math.ceil(r / t.period) * base[t.name] for t in hp)
            + hypothesis.faults_in(r) * worst_recovery
        )
        if total == r:
            return r
        if total > bound:
            return None
        r = total


def analyse_ft(
    tasks: Sequence[TaskSpec],
    hypothesis: FaultHypothesis,
    comparison_cost: int = 0,
) -> AnalysisResult:
    """Fault-tolerant RTA over a whole task set."""
    if not tasks:
        raise SchedulingError("cannot analyse an empty task set")
    results = [
        ResponseTimeResult(
            task=t.name,
            response_time=ft_response_time(tasks, t, hypothesis, comparison_cost),
            deadline=t.relative_deadline,
        )
        for t in tasks
    ]
    return AnalysisResult(per_task=results)


def max_tolerable_faults(
    tasks: Sequence[TaskSpec],
    comparison_cost: int = 0,
    ceiling: int = 64,
) -> int:
    """Largest F such that the set stays schedulable with F recoveries
    per busy period — how much fault resilience the reserved slack buys.

    Returns -1 when the set is unschedulable even fault-free (F = 0).
    """
    best = -1
    for f in range(ceiling + 1):
        result = analyse_ft(tasks, FaultHypothesis(max_faults=f), comparison_cost)
        if result.schedulable:
            best = f
        else:
            break
    return best


# ----------------------------------------------------------------------
# Weakly-hard (m,k) extension
# ----------------------------------------------------------------------

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


def mk_response_time(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: FaultHypothesis,
    comparison_cost: int = 0,
    limit_factor: int = 100,
) -> Optional[int]:
    """Worst-case response time under TEM with (m,k) miss budgets.

    Identical to :func:`ft_response_time` except that the recovery term
    accounts only for the faults the miss budgets cannot absorb: a
    recovery whose omission would stay within every affected task's
    (m,k) window is *skipped* by the miss-budget-aware policy
    (:class:`repro.core.tem.TemStateMachine` with ``accept_miss``), so it
    reserves no slack::

        R_i = C_i' + sum_{j in hp(i)} ceil(R_i / T_j) C_j'
                   + max(0, faults(R_i) - absorbable(R_i))
                     * max_{k in hep(i), k critical} (C_k + C_cmp)

    With every constraint hard ((0,1) or unset) this reduces to
    :func:`ft_response_time` term for term.
    """
    base = {t.name: tem_cost(t, comparison_cost) for t in tasks}
    own = base[task.name]
    hp = higher_priority(tasks, task)
    hep = [t for t in tasks if t.priority <= task.priority]
    worst_recovery = max((recovery_cost(t, comparison_cost) for t in hep), default=0)
    r = own
    bound = task.relative_deadline * limit_factor
    while True:
        recoveries = max(
            0, hypothesis.faults_in(r) - mk_absorbable_misses(tasks, task, r)
        )
        total = (
            own
            + sum(math.ceil(r / t.period) * base[t.name] for t in hp)
            + recoveries * worst_recovery
        )
        # The recovery term is non-monotone in r (absorbable misses grow
        # with the interval), so the iteration can oscillate instead of
        # converging from below.  Any r with demand(r) <= r is a sound
        # response-time bound, so accept it; with hard constraints the
        # demand is monotone and this fires only at total == r, keeping
        # the ft_response_time degeneracy exact.
        if total <= r:
            return r
        if total > bound:
            return None
        r = total


def analyse_mk(
    tasks: Sequence[TaskSpec],
    hypothesis: FaultHypothesis,
    comparison_cost: int = 0,
) -> AnalysisResult:
    """(m,k)-aware fault-tolerant RTA over a whole task set."""
    if not tasks:
        raise SchedulingError("cannot analyse an empty task set")
    results = [
        ResponseTimeResult(
            task=t.name,
            response_time=mk_response_time(tasks, t, hypothesis, comparison_cost),
            deadline=t.relative_deadline,
        )
        for t in tasks
    ]
    return AnalysisResult(per_task=results)


def mk_max_tolerable_faults(
    tasks: Sequence[TaskSpec],
    comparison_cost: int = 0,
    ceiling: int = 64,
) -> int:
    """Largest F keeping the set schedulable under the (m,k)-aware test —
    the fault-tolerance headroom the miss budgets buy on top of
    :func:`max_tolerable_faults`.  Returns -1 when unschedulable at F = 0.
    """
    best = -1
    for f in range(ceiling + 1):
        result = analyse_mk(tasks, FaultHypothesis(max_faults=f), comparison_cost)
        if result.schedulable:
            best = f
        else:
            break
    return best


def tem_utilization(tasks: Sequence[TaskSpec], comparison_cost: int = 0) -> float:
    """Fault-free utilization with TEM doubling applied."""
    return sum(tem_cost(t, comparison_cost) / t.period for t in tasks)


# ----------------------------------------------------------------------
# Multicore extension (ROADMAP item 4)
# ----------------------------------------------------------------------

def partition_tasks(
    tasks: Sequence[TaskSpec],
    cores: int,
    comparison_cost: int = 0,
) -> List[List[TaskSpec]]:
    """Deterministic task-to-core assignment for partitioned scheduling.

    Tasks with an explicit :attr:`~repro.kernel.task.TaskSpec.core` keep
    their pin; the rest are placed first-fit-decreasing by TEM-inflated
    utilization (a standard bin-packing heuristic), with ties broken by
    registration order so the assignment is reproducible.  With one core
    everything lands on core 0 and each partition *is* the input set.
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


def _global_response_time(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: FaultHypothesis,
    cores: int,
    comparison_cost: int,
    limit_factor: int,
    with_mk: bool,
) -> Optional[int]:
    """Global-FP response-time iteration (shared by ft/mk variants).

    The classic multiprocessor extension of the busy-period argument: on
    M cores a job is only delayed while *all* M cores are busy with
    equal-or-higher-priority work, so interference (and the reserved
    recovery demand, which runs at the recovering task's priority) is
    divided by M::

        R_i = C_i' + floor((sum_{j in hp(i)} ceil(R_i / T_j) C_j'
                            + recoveries(R_i) * maxrec(i)) / M)

    With M = 1 the floor-division is the identity, every iterate equals
    the single-processor iteration's, and the fixed point is bit-identical
    to :func:`ft_response_time` (or :func:`mk_response_time` when
    *with_mk*) — the degeneracy gate the tests pin down.
    """
    base = {t.name: tem_cost(t, comparison_cost) for t in tasks}
    own = base[task.name]
    hp = higher_priority(tasks, task)
    hep = [t for t in tasks if t.priority <= task.priority]
    worst_recovery = max((recovery_cost(t, comparison_cost) for t in hep), default=0)
    r = own
    bound = task.relative_deadline * limit_factor
    while True:
        recoveries = hypothesis.faults_in(r)
        if with_mk:
            recoveries = max(0, recoveries - mk_absorbable_misses(tasks, task, r))
        interference = sum(math.ceil(r / t.period) * base[t.name] for t in hp)
        total = own + (interference + recoveries * worst_recovery) // cores
        # Same convergence rules as the single-core iterations: the hard
        # variant's demand is monotone (equality suffices); the (m,k)
        # recovery term is not, so any total <= r is a sound bound.
        if total <= r if with_mk else total == r:
            return r
        if total > bound:
            return None
        r = total


def ft_response_time_mc(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: FaultHypothesis,
    cores: int = 1,
    placement: PlacementPolicy = PlacementPolicy.PARTITIONED,
    comparison_cost: int = 0,
    limit_factor: int = 100,
) -> Optional[int]:
    """Worst-case response time of *task* on an M-core node.

    Partitioned placement analyses *task*'s partition with the
    single-processor test (interference only from co-located tasks);
    global placement uses the M-divided busy-period iteration.  Both
    reduce term for term to :func:`ft_response_time` at ``cores=1``.
    """
    if placement is PlacementPolicy.PARTITIONED:
        partitions = partition_tasks(tasks, cores, comparison_cost)
        for partition in partitions:
            if any(t.name == task.name for t in partition):
                return ft_response_time(
                    partition, task, hypothesis, comparison_cost, limit_factor
                )
        raise SchedulingError(f"task {task.name!r} not in the analysed set")
    return _global_response_time(
        tasks, task, hypothesis, cores, comparison_cost, limit_factor, with_mk=False
    )


def mk_response_time_mc(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: FaultHypothesis,
    cores: int = 1,
    placement: PlacementPolicy = PlacementPolicy.PARTITIONED,
    comparison_cost: int = 0,
    limit_factor: int = 100,
) -> Optional[int]:
    """(m,k)-aware multicore response time (see :func:`ft_response_time_mc`)."""
    if placement is PlacementPolicy.PARTITIONED:
        partitions = partition_tasks(tasks, cores, comparison_cost)
        for partition in partitions:
            if any(t.name == task.name for t in partition):
                return mk_response_time(
                    partition, task, hypothesis, comparison_cost, limit_factor
                )
        raise SchedulingError(f"task {task.name!r} not in the analysed set")
    return _global_response_time(
        tasks, task, hypothesis, cores, comparison_cost, limit_factor, with_mk=True
    )


def analyse_ft_mc(
    tasks: Sequence[TaskSpec],
    hypothesis: FaultHypothesis,
    cores: int = 1,
    placement: PlacementPolicy = PlacementPolicy.PARTITIONED,
    comparison_cost: int = 0,
) -> AnalysisResult:
    """Fault-tolerant RTA of a task set on an M-core node.

    ``analyse_ft_mc(tasks, hyp, cores=1)`` equals :func:`analyse_ft`
    exactly — same per-task response times, same schedulability verdict —
    for either placement policy (the M = 1 degeneracy gate).
    """
    if not tasks:
        raise SchedulingError("cannot analyse an empty task set")
    results = [
        ResponseTimeResult(
            task=t.name,
            response_time=ft_response_time_mc(
                tasks, t, hypothesis, cores, placement, comparison_cost
            ),
            deadline=t.relative_deadline,
        )
        for t in tasks
    ]
    return AnalysisResult(per_task=results)


def analyse_mk_mc(
    tasks: Sequence[TaskSpec],
    hypothesis: FaultHypothesis,
    cores: int = 1,
    placement: PlacementPolicy = PlacementPolicy.PARTITIONED,
    comparison_cost: int = 0,
) -> AnalysisResult:
    """(m,k)-aware multicore RTA; equals :func:`analyse_mk` at ``cores=1``."""
    if not tasks:
        raise SchedulingError("cannot analyse an empty task set")
    results = [
        ResponseTimeResult(
            task=t.name,
            response_time=mk_response_time_mc(
                tasks, t, hypothesis, cores, placement, comparison_cost
            ),
            deadline=t.relative_deadline,
        )
        for t in tasks
    ]
    return AnalysisResult(per_task=results)
