"""The merged response-time fixed point against the iterations it replaced.

:func:`repro.kernel.analysis.response_time` and
:func:`repro.kernel.analysis.analyse` must return, for every task of
every task set, the response time of the reference iteration their
parameters select (:mod:`tests.oracles.reference_rta`):

* no fault hypothesis: plain RTA over the task's partition (or, global on
  one core, over the whole set);
* a hypothesis and no (m,k) constraint anywhere: the fault-tolerant
  multicore RTA;
* a hypothesis and some (m,k) constraint: the (m,k)-aware multicore RTA.

Task sets mix criticalities, optional (m,k) constraints, in-range core
pins, windowed and per-busy-period hypotheses, comparison costs and both
placements on one to three cores.  Plain RTA on several cores under
global placement has no reference form and is not drawn.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kernel.analysis import (
    FaultHypothesis,
    analyse,
    partition_tasks,
    response_time,
)
from repro.kernel.cores import PlacementPolicy
from repro.kernel.task import Criticality, TaskSpec, WeaklyHardConstraint
from tests.oracles import reference_rta


@st.composite
def weakly_hard(draw):
    window = draw(st.integers(min_value=1, max_value=5))
    misses = draw(st.integers(min_value=0, max_value=window - 1))
    return WeaklyHardConstraint(max_misses=misses, window_jobs=window)


@st.composite
def scenarios(draw):
    cores = draw(st.integers(min_value=1, max_value=3))
    placement = draw(st.sampled_from(list(PlacementPolicy)))
    count = draw(st.integers(min_value=1, max_value=5))
    priorities = draw(st.permutations(range(count)))
    tasks = []
    for index in range(count):
        period = draw(st.integers(min_value=10, max_value=400))
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 3)))
        deadline = draw(st.none() | st.integers(min_value=wcet, max_value=period))
        tasks.append(TaskSpec(
            name=f"t{index}",
            period=period,
            wcet=wcet,
            deadline=deadline,
            priority=priorities[index],
            criticality=draw(st.sampled_from(list(Criticality))),
            weakly_hard=draw(st.none() | weakly_hard()),
            core=draw(st.none() | st.integers(min_value=0, max_value=cores - 1)),
        ))
    hypothesis = draw(st.none() | st.builds(
        FaultHypothesis,
        max_faults=st.integers(min_value=0, max_value=4),
        window=st.none() | st.integers(min_value=5, max_value=500),
    ))
    comparison_cost = draw(st.integers(min_value=0, max_value=20))
    return tasks, hypothesis, cores, placement, comparison_cost


def reference(tasks, task, hypothesis, cores, placement, comparison_cost):
    """The replaced iteration the parameters select."""
    if hypothesis is None:
        if placement is PlacementPolicy.GLOBAL:
            return reference_rta.response_time(tasks, task)
        partition = next(
            p for p in partition_tasks(tasks, cores, comparison_cost) if task in p
        )
        return reference_rta.response_time(partition, task)
    variant = (
        reference_rta.mk_response_time_mc
        if any(t.weakly_hard is not None for t in tasks)
        else reference_rta.ft_response_time_mc
    )
    return variant(tasks, task, hypothesis, cores, placement, comparison_cost)


@given(scenario=scenarios())
@settings(max_examples=400, deadline=None)
def test_response_time_matches_the_replaced_iterations(scenario):
    tasks, hypothesis, cores, placement, comparison_cost = scenario
    assume(hypothesis is not None or placement is PlacementPolicy.PARTITIONED or cores == 1)
    expected = [
        reference(tasks, t, hypothesis, cores, placement, comparison_cost)
        for t in tasks
    ]
    assert [
        response_time(tasks, t, hypothesis, cores, placement, comparison_cost)
        for t in tasks
    ] == expected
    result = analyse(tasks, hypothesis, cores, placement, comparison_cost)
    assert [r.response_time for r in result.per_task] == expected
