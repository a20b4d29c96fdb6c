"""Differential test: a deep copy of a mid-run E15 kernel finishes like
the uninterrupted run, and leaves the original untouched.

Random E15 trials (:func:`~repro.experiments.multicore_tem.multicore_trials`)
run under all four (TEM mode x resource protocol) configurations.  Each
trial is cut at a random tick: the simulator runs to the cut, then
``copy.deepcopy((sim, scheduler))`` is taken and only the copy runs to
the end.  The copy must give the fingerprint of an uninterrupted run —
outcome, ``events_executed``, :class:`~repro.kernel.resources.ResourceStats`
and :class:`~repro.kernel.scheduler.JobStats` — while the original's
fingerprint, clock and calendar stay as they were at the cut.  The
original must then still finish identically.  This is the contract the
:class:`~repro.kernel.scheduler.Scheduler` docstring states: every
calendar event is a bound method plus its operands, so a copied calendar
fires into the copied kernel, never into the original.
"""

import copy
import dataclasses
import functools
import json

import numpy as np
import pytest

from repro.experiments.multicore_tem import (
    NODE_CORES,
    PERIOD_TICKS,
    multicore_trials,
    run_multicore_trial,
    workload_tasks,
)
from repro.harness.seeds import derive_seed
from repro.kernel.resources import ResourceProtocol
from repro.kernel.scheduler import KernelConfig, Scheduler
from repro.kernel.task import CallableExecutable, TemMode
from repro.sim import PRIORITY_DEFAULT, Simulator, TraceRecorder

SEED = 4219
TRIALS = 40
#: Where ``run_multicore_trial`` stops its simulation.
HORIZON = 2 * PERIOD_TICKS + PERIOD_TICKS // 2

CONFIGS = tuple(
    (mode, protocol)
    for mode in (TemMode.TEMPORAL, TemMode.SPATIAL)
    for protocol in (ResourceProtocol.LOCK, ResourceProtocol.LOCK_FREE)
)


def _build(trial, mode, protocol, seed, trace=False):
    """``run_multicore_trial``'s set-up, stopped before the run.

    The fault is a :func:`functools.partial` of the bound method (a
    lambda would keep pointing at this scheduler from inside a copy).
    """
    sim = Simulator()
    scheduler = Scheduler(
        sim,
        name="mc",
        trace=TraceRecorder(enabled=trace),
        rng=np.random.default_rng(seed),
        config=KernelConfig(
            cores=NODE_CORES,
            resource_protocol=protocol,
            budget_factor=2.0,
            comparison_cost=20,
            cs_fault_cleanup_cost=500,
        ),
    )
    for spec in workload_tasks(mode):
        value = {"ctrl": (17,), "mon": (29,), "log": (1,)}[spec.name]
        scheduler.add_task(spec, CallableExecutable(lambda i, v=value: v, spec.wcet))
    scheduler.start()
    sim.schedule_at(
        trial.tick,
        functools.partial(scheduler.apply_fault_effect, trial.effect, trial.core),
        priority=PRIORITY_DEFAULT,
    )
    return sim, scheduler


def _outcome(stats):
    if stats.undetected_wrong_outputs > 0:
        return "undetected"
    if stats.omissions > 0:
        return "omission"
    if stats.delivered_masked > 0:
        return "masked"
    return "ok"


def _fingerprint(sim, scheduler):
    return json.dumps(
        [
            _outcome(scheduler.stats),
            sim.events_executed,
            dataclasses.asdict(scheduler.resources.stats),
            dataclasses.asdict(scheduler.stats),
        ],
        separators=(",", ":"),
    )


def _calendar(sim):
    return sorted((handle.time, handle.label) for handle in sim.pending_events())


def _cases():
    rng = np.random.default_rng(SEED)
    trials = multicore_trials(TRIALS, seed=SEED)
    for mode, protocol in CONFIGS:
        for index, trial in enumerate(trials):
            cut = int(rng.integers(0, HORIZON + 1))
            yield mode, protocol, trial, derive_seed(SEED, index), cut


CASES = list(_cases())


@pytest.mark.parametrize("mode,protocol", CONFIGS, ids=lambda v: v.value)
def test_build_mirrors_run_multicore_trial(mode, protocol):
    for case_mode, case_protocol, trial, seed, _ in CASES:
        if (case_mode, case_protocol) != (mode, protocol):
            continue
        outcome, scheduler = run_multicore_trial(trial, mode, protocol, seed=seed)
        sim, mirror = _build(trial, mode, protocol, seed)
        sim.run(until=HORIZON)
        assert _fingerprint(sim, mirror) == _fingerprint(scheduler.sim, scheduler)
        assert _outcome(scheduler.stats) == outcome


def _check_branch(trial, mode, protocol, seed, cut, trace=False):
    sim, scheduler = _build(trial, mode, protocol, seed, trace)
    sim.run(until=HORIZON)
    want = _fingerprint(sim, scheduler)
    want_trace = list(scheduler.trace.events)

    sim, scheduler = _build(trial, mode, protocol, seed, trace)
    sim.run(until=cut)
    at_cut = (_fingerprint(sim, scheduler), sim.now, _calendar(sim))
    trace_at_cut = list(scheduler.trace.events)

    copy_sim, copy_scheduler = copy.deepcopy((sim, scheduler))
    assert copy_scheduler.sim is copy_sim
    copy_sim.run(until=HORIZON)
    assert _fingerprint(copy_sim, copy_scheduler) == want
    assert copy_scheduler.trace.events == want_trace

    # The copy's events fired into the copy: the original is still at the cut.
    assert (_fingerprint(sim, scheduler), sim.now, _calendar(sim)) == at_cut
    assert scheduler.trace.events == trace_at_cut

    sim.run(until=HORIZON)
    assert _fingerprint(sim, scheduler) == want
    assert scheduler.trace.events == want_trace
    return want != at_cut[0]


def test_deepcopy_branch_finishes_like_the_uninterrupted_run():
    moved = 0
    for mode, protocol, trial, seed, cut in CASES:
        moved += _check_branch(trial, mode, protocol, seed, cut)
    # Most cuts leave work for the copy to do (a vacuous cut at the end
    # would pass trivially).
    assert moved > len(CASES) // 2


@pytest.mark.parametrize("mode,protocol", CONFIGS, ids=lambda v: v.value)
def test_deepcopy_branch_with_trace_enabled(mode, protocol):
    trials = multicore_trials(8, seed=SEED + 1)
    rng = np.random.default_rng(SEED + 1)
    for index, trial in enumerate(trials):
        # Cut at, just before and just after the fault, and at random.
        for cut in (trial.tick, max(0, trial.tick - 1), trial.tick + 1,
                    int(rng.integers(0, HORIZON + 1))):
            _check_branch(
                trial, mode, protocol, derive_seed(SEED + 1, index), cut, trace=True
            )
