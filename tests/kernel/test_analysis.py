"""Tests of response-time analysis (plain and fault-tolerant) and priorities."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.kernel.analysis import (
    FaultHypothesis,
    analyse,
    max_tolerable_faults,
    recovery_cost,
    response_time,
    tem_cost,
    tem_utilization,
    utilization,
)
from repro.kernel.budget import ExecutionBudget, budget_for_wcet
from repro.kernel.cores import PlacementPolicy
from repro.kernel.priority import assign_criticality_monotonic
from repro.kernel.task import Criticality, TaskSpec


def task(name, period, wcet, priority, deadline=None, critical=True):
    return TaskSpec(
        name=name, period=period, wcet=wcet, priority=priority, deadline=deadline,
        criticality=Criticality.CRITICAL if critical else Criticality.NON_CRITICAL,
    )


class TestPlainRta:
    def test_textbook_example(self):
        # Classic: C=(1,2,3), T=(4,6,10) -> R = 1, 3, 10 (Burns & Wellings).
        tasks = [
            task("t1", 4, 1, 0),
            task("t2", 6, 2, 1),
            task("t3", 10, 3, 2),
        ]
        result = analyse(tasks)
        assert result.response_time("t1") == 1
        assert result.response_time("t2") == 3
        assert result.response_time("t3") == 10
        assert result.schedulable

    def test_highest_priority_response_is_own_wcet(self):
        tasks = [task("hi", 100, 10, 0), task("lo", 200, 50, 1)]
        assert response_time(tasks, tasks[0]) == 10

    def test_unschedulable_set_detected(self):
        tasks = [
            task("t1", 10, 6, 0),
            task("t2", 10, 6, 1),  # combined utilization > 1
        ]
        result = analyse(tasks)
        assert not result.schedulable

    def test_divergence_returns_none(self):
        tasks = [task("t1", 10, 10, 0), task("t2", 100, 10, 1)]
        assert response_time(tasks, tasks[1]) is None

    def test_utilization(self):
        tasks = [task("t1", 10, 2, 0), task("t2", 20, 5, 1)]
        assert utilization(tasks) == pytest.approx(0.45)

    def test_empty_set_rejected(self):
        with pytest.raises(SchedulingError):
            analyse([])


class TestFtRta:
    def test_tem_doubles_critical_cost(self):
        t = task("c", 100, 10, 0)
        assert tem_cost(t) == 20
        assert tem_cost(t, comparison_cost=2) == 22
        n = task("n", 100, 10, 1, critical=False)
        assert tem_cost(n) == 10
        assert recovery_cost(n) == 0

    def test_ft_response_at_least_doubled(self):
        tasks = [task("t1", 100, 10, 0), task("t2", 200, 20, 1)]
        plain = response_time(tasks, tasks[1])
        ft = response_time(tasks, tasks[1], FaultHypothesis(max_faults=0))
        assert ft >= 2 * plain - tasks[1].wcet  # doubled own + doubled hp

    def test_each_anticipated_fault_adds_recovery_slack(self):
        tasks = [task("t1", 1000, 10, 0)]
        r0 = response_time(tasks, tasks[0], FaultHypothesis(max_faults=0))
        r1 = response_time(tasks, tasks[0], FaultHypothesis(max_faults=1))
        r2 = response_time(tasks, tasks[0], FaultHypothesis(max_faults=2))
        assert r1 - r0 == 10  # one extra copy
        assert r2 - r1 == 10

    def test_recovery_cost_uses_worst_hep_task(self):
        tasks = [task("big", 1000, 50, 0), task("small", 1000, 5, 1)]
        r_small_f0 = response_time(tasks, tasks[1], FaultHypothesis(0))
        r_small_f1 = response_time(tasks, tasks[1], FaultHypothesis(1))
        # The fault may hit 'big' (higher priority), so its recovery (50)
        # delays 'small'.
        assert r_small_f1 - r_small_f0 == 50

    def test_window_hypothesis_scales_with_response_time(self):
        hypothesis = FaultHypothesis(max_faults=1, window=100)
        assert hypothesis.faults_in(50) == 1
        assert hypothesis.faults_in(150) == 2
        assert hypothesis.faults_in(300) == 3

    def test_max_tolerable_faults_monotone_in_load(self):
        light = [task("t", 1000, 10, 0)]
        heavy = [task("t", 1000, 300, 0)]
        assert max_tolerable_faults(light) > max_tolerable_faults(heavy)

    def test_unschedulable_even_fault_free(self):
        tasks = [task("t", 10, 6, 0)]  # TEM doubles to 12 > deadline 10
        assert max_tolerable_faults(tasks) == -1
        assert not analyse(tasks, FaultHypothesis(0)).schedulable

    def test_tem_utilization(self):
        tasks = [task("c", 10, 2, 0), task("n", 10, 2, 1, critical=False)]
        assert tem_utilization(tasks) == pytest.approx(0.6)  # (4 + 2) / 10

    def test_invalid_hypothesis(self):
        with pytest.raises(ConfigurationError):
            FaultHypothesis(max_faults=-1)
        with pytest.raises(ConfigurationError):
            FaultHypothesis(max_faults=1, window=0)


class TestPinValidation:
    """A core pin outside the node is a configuration error on one core as
    on many, as the scheduler rejects it; global placement ignores pins."""

    def pinned(self):
        return [task("a", 100, 10, 0), dataclasses.replace(task("b", 200, 20, 1), core=1)]

    def test_pin_outside_a_single_core_node_rejected(self):
        tasks = self.pinned()
        with pytest.raises(ConfigurationError):
            analyse(tasks, FaultHypothesis(max_faults=1))
        with pytest.raises(ConfigurationError):
            response_time(tasks, tasks[0])
        with pytest.raises(ConfigurationError):
            max_tolerable_faults(tasks)

    def test_global_placement_ignores_pins(self):
        tasks = self.pinned()
        unpinned = [dataclasses.replace(t, core=None) for t in tasks]
        hypothesis = FaultHypothesis(max_faults=1)
        pinned = analyse(tasks, hypothesis, placement=PlacementPolicy.GLOBAL)
        assert pinned.per_task == analyse(unpinned, hypothesis).per_task


class TestPriorityAssignment:
    def test_criticality_monotonic_puts_critical_first(self):
        tasks = [
            task("nc_fast", 5, 1, 0, critical=False),
            task("c_slow", 100, 1, 1),
            task("c_fast", 10, 1, 2),
        ]
        assigned = assign_criticality_monotonic(tasks)
        order = [t.name for t in sorted(assigned, key=lambda t: t.priority)]
        # The paper: a brake request outranks a diagnostic request even if
        # the diagnostic task has the shorter deadline.
        assert order == ["c_fast", "c_slow", "nc_fast"]

    def test_priorities_are_dense_and_unique(self):
        tasks = [task(f"t{i}", 10 * (i + 1), 1, 99 - i) for i in range(5)]
        assigned = assign_criticality_monotonic(tasks)
        assert sorted(t.priority for t in assigned) == list(range(5))


class TestBudget:
    def test_budget_for_wcet_has_margin(self):
        assert budget_for_wcet(100) == 120
        assert budget_for_wcet(100, factor=1.0) == 101  # at least wcet+1

    def test_budget_accounting(self):
        budget = ExecutionBudget(budget=100)
        budget.consume(60)
        assert budget.remaining == 40
        assert not budget.exhausted
        budget.consume(40)
        assert budget.exhausted
        assert budget.remaining == 0

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            ExecutionBudget(budget=0)
        with pytest.raises(ConfigurationError):
            budget_for_wcet(100, factor=0.5)
        budget = ExecutionBudget(budget=10)
        with pytest.raises(ConfigurationError):
            budget.consume(-1)


class TestTaskSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TaskSpec(name="x", period=0, wcet=1, priority=0)
        with pytest.raises(ConfigurationError):
            TaskSpec(name="x", period=10, wcet=0, priority=0)
        with pytest.raises(ConfigurationError):
            TaskSpec(name="x", period=10, wcet=5, priority=0, deadline=4)
        with pytest.raises(ConfigurationError):
            TaskSpec(name="x", period=10, wcet=1, priority=0, offset=-1)

    def test_deadline_defaults_to_period(self):
        t = TaskSpec(name="x", period=10, wcet=1, priority=0)
        assert t.relative_deadline == 10
