"""Equivalence gate for the batched TEM executor (``repro.faults.batch_campaign``).

The contract (module docstring of :mod:`repro.faults.batch_campaign`): for
every fault the batch executor's :class:`ExperimentRecord` and per-trial
metrics stable view are bit-identical to
:meth:`TemInjectionHarness.run_experiment` under metrics capture — across
chunk boundaries, partial final chunks, and the scalar fallback for
non-batchable (permanent / abstract-target) faults.  The randomized
version of this gate lives in
``tests/property/test_batch_differential.py``; here the fault list is the
deterministic E5 sequence the real campaign runs.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.coverage_table import e5_fault_payloads, make_brake_workload
from repro.faults.batch_campaign import BatchTemExecutor, batchable
from repro.faults.campaign import TemInjectionHarness
from repro.faults.generators import random_fault
from repro.faults.types import FaultType
from repro.kernel.task import MKWindow, WeaklyHardConstraint
from repro.obs import metrics as obs_metrics

EXPERIMENTS = 120
SEED = 2005


@pytest.fixture(scope="module")
def harness():
    return TemInjectionHarness(make_brake_workload(max_copies=3))


@pytest.fixture(scope="module")
def faults():
    return [fault for _copies, fault in e5_fault_payloads(EXPERIMENTS, seed=SEED)]


def _scalar(harness, faults, windows=None):
    """The scalar harness under per-trial metrics capture."""
    replies = []
    for index, fault in enumerate(faults):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.capture(registry):
            record = harness.run_experiment(
                fault, miss_window=None if windows is None else windows[index]
            )
        snap = registry.snapshot()
        replies.append((record, snap if snap else None))
    return replies


@pytest.fixture(scope="module")
def scalar_replies(harness, faults):
    """Reference: the scalar harness under per-trial metrics capture."""
    return _scalar(harness, faults)


def _stable(replies):
    return [
        (record.to_json(), obs_metrics.stable_view(snapshot))
        for record, snapshot in replies
    ]


class TestEquivalence:
    def test_records_and_metrics_match_scalar(self, harness, faults, scalar_replies):
        # batch=48 over 120 faults: two full chunks plus a partial one.
        batch = BatchTemExecutor(harness, batch=48).run_experiments(faults)
        assert _stable(batch) == _stable(scalar_replies)

    def test_chunking_is_invisible(self, harness, faults, scalar_replies):
        """Replies are in fault order whatever the chunk geometry."""
        expected = _stable(scalar_replies)
        for batch in (1, 7, EXPERIMENTS, 4 * EXPERIMENTS):
            replies = BatchTemExecutor(harness, batch=batch).run_experiments(faults)
            assert _stable(replies) == expected

    def test_campaign_statistics_match_scalar(self, harness, faults, scalar_replies):
        stats = BatchTemExecutor(harness, batch=64).run_campaign(faults)
        assert [r.to_json() for r in stats.records] == [
            r.to_json() for r, _snap in scalar_replies
        ]


#: Workloads that move the fast path's gates.  The brake task's golden run
#: takes 34 steps, so copy 2 fits the deadline after a clean copy 1 exactly
#: when ``int(34 * deadline_factor) >= 18``: 0.5 refuses it, 0.53 admits it
#: with no step to spare.
_VARIANTS = {
    "max_copies_1": lambda: make_brake_workload(max_copies=1),
    "max_copies_2": lambda: make_brake_workload(max_copies=2),
    "copy2_refused": lambda: dataclasses.replace(
        make_brake_workload(), deadline_factor=0.5
    ),
    "copy2_at_deadline": lambda: dataclasses.replace(
        make_brake_workload(), deadline_factor=0.53
    ),
    "no_control_flow": lambda: make_brake_workload(control_flow_checking=False),
    "no_mmu": lambda: make_brake_workload(mmu_enabled=False),
}


class TestFastPathGates:
    """Workloads whose TEM decisions differ from the default: every gate
    of the clean-lane fast path (copy cap, deadline check, signature
    check, MMU) must still give the scalar records and metrics."""

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_variant_matches_scalar(self, variant, faults):
        harness = TemInjectionHarness(_VARIANTS[variant]())
        batch = BatchTemExecutor(harness, batch=48).run_experiments(faults)
        assert _stable(batch) == _stable(_scalar(harness, faults))

    def test_mk_windows_match_scalar(self, harness, faults):
        """Per-fault E14 (m,k) windows with mixed miss histories: records,
        metrics and the windows' final state match the scalar path."""

        def windows():
            constraint = WeaklyHardConstraint(max_misses=1, window_jobs=3)
            histories = ((), (1,), (0, 1), (1, 0))
            return [MKWindow(constraint, histories[i % 4]) for i in range(len(faults))]

        scalar_windows, batch_windows = windows(), windows()
        expected = _scalar(harness, faults, scalar_windows)
        replies = BatchTemExecutor(harness, batch=48).run_experiments(
            faults, miss_windows=batch_windows
        )
        assert _stable(replies) == _stable(expected)
        assert any("mk_budget_miss" in r.detection_mechanisms for r, _ in replies)
        assert [(tuple(w._history), w.jobs, w.misses) for w in batch_windows] == [
            (tuple(w._history), w.jobs, w.misses) for w in scalar_windows
        ]


class TestExperimentTimer:
    def test_lanes_split_the_measured_job_time(self, harness, faults, monkeypatch):
        """Each lockstep lane's ``injection.experiment`` timer is an even
        share of its chunk's measured executor time, so a chunk's timer
        totals add up to that time; fast-path lanes share one snapshot."""
        assert all(batchable(fault) for fault in faults)
        executor = BatchTemExecutor(harness, batch=48)
        reads = []

        def fake_clock():
            reads.append(0.25 * len(reads) ** 2)
            return reads[-1]

        monkeypatch.setattr(time, "perf_counter", fake_clock)
        replies = executor.run_experiments(faults)
        monkeypatch.undo()

        chunks = [replies[start:start + 48] for start in range(0, len(faults), 48)]
        assert len(reads) == 2 * len(chunks)  # one start/end pair per chunk
        for index, chunk in enumerate(chunks):
            measured = reads[2 * index + 1] - reads[2 * index]
            timers = [snap["timers"]["injection.experiment"] for _, snap in chunk]
            assert [timer["count"] for timer in timers] == [1] * len(chunk)
            assert sum(timer["total_s"] for timer in timers) == pytest.approx(measured)
            assert len({id(snap) for _, snap in chunk}) < len(chunk)


class TestScalarFallback:
    def test_permanent_faults_match_scalar(self, harness):
        """A mixed chunk: lockstep lanes and scalar-fallback lanes."""
        rng = np.random.default_rng(7)
        mixed = []
        for index in range(24):
            fault_type = (
                FaultType.PERMANENT if index % 3 == 0 else FaultType.TRANSIENT
            )
            mixed.append(
                random_fault(
                    rng,
                    max_step=max(harness.golden_steps * 2, 2),
                    code_range=(0, 40),
                    data_range=(0x1800, 0x1902),
                    fault_type=fault_type,
                )
            )
        assert any(not batchable(f) for f in mixed)
        assert any(batchable(f) for f in mixed)

        expected = []
        for fault in mixed:
            registry = obs_metrics.MetricsRegistry()
            with obs_metrics.capture(registry):
                record = harness.run_experiment(fault)
            snap = registry.snapshot()
            expected.append((record, snap if snap else None))

        replies = BatchTemExecutor(harness, batch=8).run_experiments(mixed)
        assert _stable(replies) == _stable(expected)


class TestValidation:
    @pytest.mark.parametrize("batch", [0, -3])
    def test_rejects_nonpositive_batch(self, harness, batch):
        with pytest.raises(ConfigurationError):
            BatchTemExecutor(harness, batch=batch)
