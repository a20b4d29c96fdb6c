"""The scheduler's pure decisions against their candidate-list oracles.

:func:`~repro.kernel.scheduler.next_boundary` must equal the
``min(candidates, key=(time, rank))`` form of
:mod:`tests.oracles.reference_kernel` over an exhaustive integer grid.
The grid is small enough to enumerate and wide enough to put every pair
of candidates on the same tick: error present or absent, no section, a
section not yet entered or already entered (behind a finished one or
not), every duration, consumed time and remaining budget up to a few
ticks.  :func:`~repro.kernel.scheduler.best_ready` must pick the same job
object as ``min(key=priority)`` for every small ready list, ties
included.  The TEM deadline check,
:func:`~repro.kernel.scheduler.another_copy_fits` and the scheduler's
``functools.partial`` binding of it, must agree with the closure form
over a grid of WCET, comparison cost, release, deadline and current time
that puts the copy's end on, before and after the deadline.
"""

import functools
import itertools

import pytest

from repro.kernel.scheduler import (
    Job, KernelConfig, Scheduler, _Section, another_copy_fits, best_ready, next_boundary,
)
from repro.kernel.task import CopyPlan, TaskSpec
from repro.sim import Simulator
from tests.oracles import reference_kernel

TICKS = range(0, 5)


def _plan(duration, error_at, detected):
    plan = CopyPlan(duration=duration, result=(1,))
    # Set after construction, as fault effects do at run time: the grid
    # includes an error mechanism whose error_at is unset.
    plan.detected_error = detected
    plan.error_at = error_at
    return plan


def _section_lists():
    yield []
    for enter_at, exit_at, entered, behind_done in itertools.product(
        TICKS, TICKS, (False, True), (False, True)
    ):
        current = _Section("r", 1, enter_at, exit_at, entered=entered)
        if behind_done:
            done = _Section("r", 1, 0, 0, entered=True, done=True)
            yield [done, current]
        else:
            yield [current]


ERRORS = [(None, None), ("cpu_exception", None)] + [
    ("cpu_exception", at) for at in TICKS
]


def test_next_boundary_matches_candidate_min():
    reasons = set()
    cases = 0
    for (detected, error_at), sections in itertools.product(ERRORS, _section_lists()):
        for duration, consumed, budget in itertools.product(range(1, 5), range(0, 6), TICKS):
            plan = _plan(duration, error_at, detected)
            got = next_boundary(plan, sections, consumed, budget)
            want = reference_kernel.next_boundary(plan, sections, consumed, budget)
            assert got == want, (detected, error_at, sections, duration, consumed, budget)
            reasons.add(got[1])
            cases += 1
    assert cases == len(ERRORS) * 101 * 4 * 6 * 5
    assert reasons == set(reference_kernel.BOUNDARY_RANK)


def _jobs(priorities, homes):
    jobs = []
    for number, (priority, home) in enumerate(zip(priorities, homes), start=1):
        task = TaskSpec(name=f"t{number}", period=1_000, wcet=10, priority=priority)
        job = Job(task, 0, (), number)
        job.home_core = home
        jobs.append(job)
    return jobs


@pytest.mark.parametrize("length", range(0, 5))
def test_best_ready_matches_min(length):
    for priorities in itertools.product(range(3), repeat=length):
        for homes in itertools.product(range(2), repeat=length):
            ready = _jobs(priorities, homes)
            for core in (None, 0, 1):
                assert best_ready(ready, core) is reference_kernel.best_ready(ready, core)


def test_deadline_predicate_matches_closure_form():
    outcomes = set()
    edges = 0
    for cost in range(0, 4):
        sim = Simulator()
        scheduler = Scheduler(sim, config=KernelConfig(comparison_cost=cost))
        for now in range(0, 16):
            sim.run(until=now)
            assert sim.now == now
            for wcet, release, deadline in itertools.product(
                range(1, 5), (0, 3), range(1, 12)
            ):
                if wcet > deadline:
                    continue
                task = TaskSpec(
                    name="t", period=20, wcet=wcet, priority=0, deadline=deadline
                )
                job = Job(task, release, (), 1)
                want = reference_kernel.deadline_predicate(scheduler, job)()
                assert another_copy_fits(job, now, cost) is want
                assert functools.partial(scheduler._deadline_predicate, job)() is want
                outcomes.add(want)
                if now + wcet + cost == release + deadline:
                    edges += 1
                    assert want  # a copy ending exactly at the deadline fits
    assert outcomes == {True, False}
    assert edges > 0
