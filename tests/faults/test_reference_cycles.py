"""Campaigns leave no cyclic garbage behind.

A hardware exception logged with its traceback closes the cycle
exception -> traceback -> frame -> machine -> exception log, which turns
every caller frame's locals (down to a campaign's records) into garbage
only the cyclic collector can free.  With the collector disabled, each
campaign path below must free everything by reference counting alone.
"""

import gc

import numpy as np
import pytest

from repro.cpu.assembler import assemble
from repro.experiments.coverage_table import (
    BRAKE_TASK_SOURCE,
    make_brake_workload,
    run_coverage_campaign,
)
from repro.faults.campaign import TemInjectionHarness
from repro.faults.generators import random_fault
from repro.faults.types import FaultType

TRIALS = 64


@pytest.fixture
def collector_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("batch", [0, 16], ids=["scalar", "batch16"])
def test_coverage_campaign_leaves_no_cycles(collector_disabled, batch):
    result = run_coverage_campaign(experiments=TRIALS, batch=batch)
    assert result.stats.total == TRIALS
    del result
    assert gc.collect() == 0


def test_golden_trace_replay_leaves_no_cycles(collector_disabled):
    """A harness built here, so its traced clone and checkpoints are made
    with the collector off whatever ran before, then a fault list through
    every ``settle_or_run`` path: settle, resume-and-reconverge, and the
    full simulation of a permanent fault."""
    harness = TemInjectionHarness(make_brake_workload())
    code_words = assemble(BRAKE_TASK_SOURCE).size
    rng = np.random.default_rng(7)
    for index in range(TRIALS):
        fault = random_fault(
            rng, 2 * harness.golden_steps, (0, code_words), (0x1800, 0x1902),
            fault_type=FaultType.PERMANENT if index % 8 == 0 else FaultType.TRANSIENT,
        )
        harness.settle_or_run(fault)
    del harness
    assert gc.collect() == 0


def test_permanent_fault_job_sequences_leave_no_cycles(collector_disabled):
    harness = TemInjectionHarness(make_brake_workload())
    code_words = assemble(BRAKE_TASK_SOURCE).size
    rng = np.random.default_rng(5)
    gc.collect()
    for _ in range(TRIALS):
        fault = random_fault(
            rng, harness.golden_steps, (0, code_words), (0x1800, 0x1902),
            fault_type=FaultType.PERMANENT,
        )
        harness.run_job_sequence(fault, jobs=3)
    assert gc.collect() == 0
