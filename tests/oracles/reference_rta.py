"""Response-time analysis in the forms production replaced.

Production (:func:`repro.kernel.analysis.response_time`) runs one fixed
point for every variant: plain or TEM demand, a recovery term discounted
by the tasks' own (m,k) budgets, and a core count that divides the
interference under global placement.  These are the iterations it
replaced, one per variant, kept verbatim: plain RTA, fault-tolerant RTA,
(m,k)-aware RTA and the global multicore iteration, plus the two
multicore dispatchers.  For every input the merged fixed point must
return the same response time as the variant its parameters select.

The helpers they share (``tem_cost``, ``recovery_cost``,
``mk_absorbable_misses``, ``partition_tasks``) are unchanged in
production and imported from there.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.errors import SchedulingError
from repro.kernel.analysis import (
    FaultHypothesis,
    higher_priority,
    mk_absorbable_misses,
    partition_tasks,
    recovery_cost,
    tem_cost,
)
from repro.kernel.cores import PlacementPolicy
from repro.kernel.task import TaskSpec


def response_time(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    cost: Optional[Dict[str, int]] = None,
    limit_factor: int = 100,
) -> Optional[int]:
    """Plain one-copy RTA (each job's demand is its WCET)."""
    demand = cost if cost is not None else {t.name: t.wcet for t in tasks}
    own_cost = demand[task.name]
    interference_sources = higher_priority(tasks, task)
    r = own_cost
    bound = task.relative_deadline * limit_factor
    while True:
        total = own_cost + sum(
            math.ceil(r / t.period) * demand[t.name] for t in interference_sources
        )
        if total == r:
            return r
        if total > bound:
            return None
        r = total


def ft_response_time(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: FaultHypothesis,
    comparison_cost: int = 0,
    limit_factor: int = 100,
) -> Optional[int]:
    """Fault-tolerant RTA: TEM demand plus every anticipated recovery."""
    base = {t.name: tem_cost(t, comparison_cost) for t in tasks}
    own = base[task.name]
    hp = higher_priority(tasks, task)
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


def mk_response_time(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: FaultHypothesis,
    comparison_cost: int = 0,
    limit_factor: int = 100,
) -> Optional[int]:
    """(m,k)-aware RTA: only the recoveries the miss budgets cannot absorb
    reserve slack; any ``total <= r`` is accepted as a sound bound."""
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
        if total <= r:
            return r
        if total > bound:
            return None
        r = total


def global_response_time(
    tasks: Sequence[TaskSpec],
    task: TaskSpec,
    hypothesis: FaultHypothesis,
    cores: int,
    comparison_cost: int,
    limit_factor: int,
    with_mk: bool,
) -> Optional[int]:
    """Global-FP iteration: interference and recovery divided by M."""
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
    """Fault-tolerant RTA on an M-core node."""
    if placement is PlacementPolicy.PARTITIONED:
        partitions = partition_tasks(tasks, cores, comparison_cost)
        for partition in partitions:
            if any(t.name == task.name for t in partition):
                return ft_response_time(
                    partition, task, hypothesis, comparison_cost, limit_factor
                )
        raise SchedulingError(f"task {task.name!r} not in the analysed set")
    return global_response_time(
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
    """(m,k)-aware RTA on an M-core node."""
    if placement is PlacementPolicy.PARTITIONED:
        partitions = partition_tasks(tasks, cores, comparison_cost)
        for partition in partitions:
            if any(t.name == task.name for t in partition):
                return mk_response_time(
                    partition, task, hypothesis, comparison_cost, limit_factor
                )
        raise SchedulingError(f"task {task.name!r} not in the analysed set")
    return global_response_time(
        tasks, task, hypothesis, cores, comparison_cost, limit_factor, with_mk=True
    )
