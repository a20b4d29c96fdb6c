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

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.coverage_table import e5_fault_payloads, make_brake_workload
from repro.faults.batch_campaign import BatchTemExecutor, batchable
from repro.faults.campaign import TemInjectionHarness
from repro.faults.generators import random_fault
from repro.faults.types import FaultType
from repro.obs import metrics as obs_metrics

EXPERIMENTS = 120
SEED = 2005


@pytest.fixture(scope="module")
def harness():
    return TemInjectionHarness(make_brake_workload(max_copies=3))


@pytest.fixture(scope="module")
def faults():
    return [fault for _copies, fault in e5_fault_payloads(EXPERIMENTS, seed=SEED)]


@pytest.fixture(scope="module")
def scalar_replies(harness, faults):
    """Reference: the scalar harness under per-trial metrics capture."""
    replies = []
    for fault in faults:
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.capture(registry):
            record = harness.run_experiment(fault)
        snap = registry.snapshot()
        replies.append((record, snap if snap else None))
    return replies


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
