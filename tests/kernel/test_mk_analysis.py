"""Miss-pattern-aware FT-RTA for weakly-hard (m,k) task sets.

:func:`repro.kernel.analysis.response_time` discounts recovery slack by
the misses a task set's own (m,k) constraints can absorb.  The gate here
is the degeneracy: with hard constraints (or none) the analysis must
agree with the classic fault-tolerant iteration term for term, and a real
miss budget must only ever *shrink* response times and *grow* the
tolerable-fault headroom.
"""

import contextlib
import dataclasses
import signal

import pytest

from repro.kernel.analysis import (
    FaultHypothesis,
    analyse,
    jobs_in,
    max_tolerable_faults,
    mk_absorbable_misses,
    response_time,
)
from repro.kernel.task import Criticality, TaskSpec, WeaklyHardConstraint
from tests.oracles import reference_rta


def task(name, period, wcet, priority, critical=True, weakly_hard=None):
    return TaskSpec(
        name=name, period=period, wcet=wcet, priority=priority,
        criticality=Criticality.CRITICAL if critical else Criticality.NON_CRITICAL,
        weakly_hard=weakly_hard,
    )


def constrain(tasks, constraint):
    """Attach *constraint* to every critical task."""
    return [
        dataclasses.replace(t, weakly_hard=constraint) if t.is_critical else t
        for t in tasks
    ]


HARD = WeaklyHardConstraint(max_misses=0, window_jobs=1)
ONE_OF_FOUR = WeaklyHardConstraint(max_misses=1, window_jobs=4)


def wheel_set(constraint=None):
    tasks = [
        task("sense", 40, 4, 0),
        task("control", 80, 12, 1),
        task("report", 200, 16, 2, critical=False),
        task("log", 400, 24, 3, critical=False),
    ]
    return constrain(tasks, constraint) if constraint else tasks


class TestAbsorbableMisses:
    def test_no_constraint_absorbs_nothing(self):
        tasks = wheel_set()
        assert mk_absorbable_misses(tasks, tasks[1], 400) == 0

    def test_hard_constraint_absorbs_nothing(self):
        tasks = wheel_set(HARD)
        assert mk_absorbable_misses(tasks, tasks[1], 400) == 0

    def test_budget_is_min_over_hep_critical_tasks(self):
        # In 400 ticks: sense runs 10 jobs -> (1,4) allows 2 full windows
        # + partial = 2*1 + min(2,1) = 3; control runs 5 jobs -> 1*1 +
        # min(1,1) = 2.  The pessimistic bound is the min: any specific
        # miss must be absorbable by *whichever* task the fault hits.
        tasks = wheel_set(ONE_OF_FOUR)
        sense, control = tasks[0], tasks[1]
        assert jobs_in(sense, 400) == 10
        assert ONE_OF_FOUR.max_misses_in(10) == 3
        assert ONE_OF_FOUR.max_misses_in(jobs_in(control, 400)) == 2
        assert mk_absorbable_misses(tasks, control, 400) == 2

    def test_one_unconstrained_critical_task_voids_the_budget(self):
        tasks = wheel_set(ONE_OF_FOUR)
        tasks[0] = dataclasses.replace(tasks[0], weakly_hard=None)
        assert mk_absorbable_misses(tasks, tasks[1], 400) == 0

    def test_non_critical_tasks_do_not_constrain(self):
        # report/log are non-critical: their missing constraint must not
        # zero the budget for lower-priority critical analysis.
        tasks = wheel_set(ONE_OF_FOUR)
        assert mk_absorbable_misses(tasks, tasks[1], 400) > 0


class TestDegeneracy:
    @pytest.mark.parametrize("constraint", [None, HARD])
    @pytest.mark.parametrize("faults", [0, 1, 3])
    def test_hard_mk_equals_classic_ft(self, constraint, faults):
        tasks = wheel_set(constraint)
        hypothesis = FaultHypothesis(max_faults=faults)
        for t in tasks:
            assert response_time(tasks, t, hypothesis) == reference_rta.ft_response_time(
                tasks, t, hypothesis
            ), t.name

    def test_analyse_mk_matches_analyse_ft_when_hard(self):
        hypothesis = FaultHypothesis(max_faults=2)
        mk = analyse(wheel_set(HARD), hypothesis)
        ft = analyse(wheel_set(), hypothesis)
        assert mk.per_task == ft.per_task
        assert mk.schedulable == ft.schedulable

    def test_headroom_degenerates(self):
        assert max_tolerable_faults(wheel_set(HARD)) == max_tolerable_faults(wheel_set())


class TestBudgetShrinksResponse:
    def test_mk_response_never_exceeds_ft(self):
        soft, hard = wheel_set(ONE_OF_FOUR), wheel_set()
        hypothesis = FaultHypothesis(max_faults=3)
        for s, h in zip(soft, hard):
            mk = response_time(soft, s, hypothesis)
            ft = response_time(hard, h, hypothesis)
            assert mk is not None and ft is not None
            assert mk <= ft, s.name

    def test_absorbed_fault_costs_no_recovery_slack(self):
        # Sense's busy period spans a single job, so (1,4) absorbs exactly
        # one miss there: a single anticipated fault costs no recovery
        # slack, a second one pays full recovery.
        soft, hard = wheel_set(ONE_OF_FOUR), wheel_set()
        fault_free = response_time(hard, hard[0], FaultHypothesis(0))
        assert response_time(soft, soft[0], FaultHypothesis(1)) == fault_free
        one_recovery = response_time(hard, hard[0], FaultHypothesis(1))
        assert response_time(soft, soft[0], FaultHypothesis(2)) == one_recovery

    def test_headroom_grows_with_budget(self):
        hard = max_tolerable_faults(wheel_set(HARD))
        relaxed = max_tolerable_faults(wheel_set(ONE_OF_FOUR))
        assert relaxed > hard

    def test_divergence_still_detected(self):
        tasks = constrain(
            [task("t1", 10, 6, 0), task("t2", 10, 6, 1)], ONE_OF_FOUR
        )
        assert response_time(tasks, tasks[1], FaultHypothesis(1)) is None
        assert not analyse(tasks, FaultHypothesis(1)).schedulable


@contextlib.contextmanager
def terminates_within(seconds):
    """Fail, rather than hang, when the body runs past *seconds*."""

    def expire(signum, frame):
        raise AssertionError(f"analysis did not terminate within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestOscillationTerminates:
    """Regression: the recovery term max(0, F - absorbable(r)) is
    non-monotone in r, so the demand can *drop* as the interval grows.
    The fixed point iteration used to require total == r and would bounce
    between two interval lengths forever; it must instead accept any r
    with demand(r) <= r as a sound bound."""

    def oscillating_set(self):
        # demand(20) = 30 (1 recovery unabsorbed) but demand(30) = 20
        # (a second job enters the window and absorbs both faults):
        # the == test never fires.
        return [
            task(
                "bbw", 25, 10, 0,
                weakly_hard=WeaklyHardConstraint(max_misses=2, window_jobs=3),
            )
        ]

    def test_mk_response_time_terminates(self):
        tasks = self.oscillating_set()
        with terminates_within(10):
            r = response_time(tasks, tasks[0], FaultHypothesis(max_faults=2))
            schedulable = analyse(tasks, FaultHypothesis(max_faults=2)).schedulable
        # The returned bound must actually satisfy demand(r) <= r.
        assert r == 30
        assert not schedulable

    def test_headroom_terminates(self):
        # max_tolerable_faults sweeps F upward and hits the oscillating
        # configuration at F = 2.
        with terminates_within(10):
            assert max_tolerable_faults(self.oscillating_set()) == 1
