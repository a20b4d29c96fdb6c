"""Batch + shard interplay gate for weakly-hard (m,k) campaigns.

ISSUE 8, satellite 3: the weakly-hard scenario family must ride the
existing execution machinery bit-identically — the vectorised lockstep
engine (:class:`~repro.faults.batch_campaign.BatchTemExecutor` via the
supervisor's ``batch_runner`` seam) and the lease-owned shard runners of
:mod:`repro.harness.shards` (``workers=N``), batching or not, including a
shard runner SIGKILLed mid-campaign by a seeded chaos policy and resumed
from its journal.  Every schedule must reproduce the serial scalar
reference exactly: record stream, outcome counts, mechanism histogram
(including the ``mk_budget_miss`` markers) and the deterministic metrics
view.
"""

import pytest

from repro.core.tem import MK_BUDGET_MISS
from repro.experiments.weakly_hard import (
    _mk_batch_runner,
    _mk_trial,
    _mk_window,
    mk_fault_payloads,
)
from repro.faults.batch_campaign import BatchTemExecutor
from repro.harness import CampaignSupervisor, SupervisorConfig
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry

EXPERIMENTS = 120
SEED = 2005
MAX_COPIES = 3
MK = dict(max_misses=1, window_jobs=4, prefill_miss_rate=0.35)


def _payloads():
    return mk_fault_payloads(
        EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES, **MK
    )


def _config(**mode):
    return SupervisorConfig(
        master_seed=SEED,
        campaign=f"e14-mk1of4-n{EXPERIMENTS}",
        **mode,
    )


def _freeze(result):
    stats = result.statistics()
    return {
        "records": [r.to_json() for r in stats.records],
        "outcome_counts": stats.outcome_counts(),
        "mechanism_counts": dict(sorted(stats.mechanism_counts().items())),
        "stable_view": metrics.stable_view(result.metrics_snapshot()),
    }


@pytest.fixture(scope="module")
def payloads():
    return _payloads()


@pytest.fixture(scope="module")
def serial(payloads):
    with metrics.capture():
        result = CampaignSupervisor(_mk_trial, _config(workers=0)).run(payloads)
    return _freeze(result)


def test_serial_reference_really_exercises_the_budget(serial):
    # A weakly-hard campaign that never accepts a miss would make every
    # equality below vacuous.
    assert serial["mechanism_counts"].get(MK_BUDGET_MISS, 0) > 0
    counters = serial["stable_view"]["counters"]
    assert counters.get("tem.mk_accepted_misses", 0) > 0
    assert counters["tem.mk_accepted_misses"] == serial[
        "mechanism_counts"
    ][MK_BUDGET_MISS]


@pytest.mark.parametrize(
    "mode",
    [
        dict(workers=2),
        dict(workers=0, batch_size=16, batch_runner=_mk_batch_runner),
        dict(workers=2, batch_size=16, batch_runner=_mk_batch_runner),
    ],
    ids=["jobs2", "batch16", "jobs2-batch16"],
)
def test_schedule_matches_serial_scalar(payloads, serial, mode):
    with metrics.capture():
        result = CampaignSupervisor(_mk_trial, _config(**mode)).run(payloads)
    assert _freeze(result) == serial


def test_sharded_matches_serial_scalar(tmp_path, payloads, serial):
    with metrics.capture():
        result = CampaignSupervisor(
            _mk_trial,
            _config(workers=2, journal_path=tmp_path / "e14.jsonl"),
        ).run(payloads)
    assert _freeze(result) == serial


def test_sharded_kill_and_resume_matches_serial_scalar(
    tmp_path, payloads, serial, run_config
):
    # A shard runner dies (SIGKILL) mid-campaign under seeded chaos; the
    # lease takeover resumes its slice from the journal.  The recovered
    # weakly-hard campaign must still be bit-identical — miss windows are
    # per-trial payload state, so a replayed trial reconstructs the exact
    # window the dead runner used.
    run_config(chaos="die:40", chaos_seed=7)
    with metrics.capture():
        result = CampaignSupervisor(
            _mk_trial,
            _config(
                workers=2,
                journal_path=tmp_path / "e14-chaos.jsonl",
            ),
        ).run(payloads)
    counters = result.harness_metrics.get("counters", {})
    assert counters.get("harness.lease_takeovers", 0) >= 1
    assert not result.degraded
    assert _freeze(result) == serial


class TestHeterogeneousAssignments:
    """ISSUE 9, satellite 2: one campaign carrying per-task (m,k)
    contracts — trial *i* takes ``assignments[i % len(assignments)]``."""

    ASSIGNMENTS = ((0, 1), (1, 4), (2, 8))

    def test_single_pair_is_bit_identical_to_homogeneous(self):
        explicit = mk_fault_payloads(
            EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES,
            prefill_miss_rate=MK["prefill_miss_rate"],
            assignments=((MK["max_misses"], MK["window_jobs"]),),
        )
        assert explicit == _payloads()

    def test_round_robin_and_per_trial_prefill_sizing(self):
        payloads = mk_fault_payloads(
            EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES,
            prefill_miss_rate=0.35, assignments=self.ASSIGNMENTS,
        )
        assert len(payloads) == EXPERIMENTS
        for index, (_, m, k, prefill, _) in enumerate(payloads):
            assert (m, k) == self.ASSIGNMENTS[index % len(self.ASSIGNMENTS)]
            assert len(prefill) == k - 1
        # The hard lanes really are hard and the widest window really
        # carries random prefill bits somewhere in the stream.
        assert any(sum(p[3]) > 0 for p in payloads if p[2] == 8)
        assert all(p[3] == () for p in payloads if p[2] == 1)

    def test_fault_stream_is_shared_with_the_homogeneous_campaign(self):
        hetero = mk_fault_payloads(
            EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES,
            prefill_miss_rate=0.35, assignments=self.ASSIGNMENTS,
        )
        assert [p[4] for p in hetero] == [p[4] for p in _payloads()]

    def test_invalid_pair_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            mk_fault_payloads(8, assignments=((4, 4),))
        with pytest.raises(ValueError):
            mk_fault_payloads(8, assignments=())

    def test_heterogeneous_batch_matches_serial(self):
        payloads = mk_fault_payloads(
            EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES,
            prefill_miss_rate=0.35, assignments=self.ASSIGNMENTS,
        )
        config = dict(master_seed=SEED, campaign=f"e14-hetero-n{EXPERIMENTS}")
        with metrics.capture():
            serial = CampaignSupervisor(
                _mk_trial, SupervisorConfig(workers=0, **config)
            ).run(payloads)
        frozen = _freeze(serial)
        # Mixed windows must yield mixed outcomes (or the test is vacuous).
        assert frozen["mechanism_counts"].get(MK_BUDGET_MISS, 0) > 0
        with metrics.capture():
            batched = CampaignSupervisor(
                _mk_trial,
                SupervisorConfig(
                    workers=0, batch_size=16,
                    batch_runner=_mk_batch_runner, **config,
                ),
            ).run(payloads)
        assert _freeze(batched) == frozen


def test_batch_executor_windows_match_scalar(payloads):
    # Window accounting parity at the executor level: the lockstep lanes
    # must leave every trial's miss window in the exact state the scalar
    # harness does.
    from repro.experiments.coverage_table import _cached_harness

    harness = _cached_harness(MAX_COPIES)
    subset = payloads[:40]

    scalar_windows = [_mk_window(p) for p in subset]
    scalar_records = []
    for payload, window in zip(subset, scalar_windows):
        reg = MetricsRegistry()
        with metrics.capture(reg):
            scalar_records.append(
                harness.run_experiment(payload[4], miss_window=window)
            )

    batch_windows = [_mk_window(p) for p in subset]
    executor = BatchTemExecutor(harness, batch=16)
    batch_replies = executor.run_experiments(
        [p[4] for p in subset], miss_windows=batch_windows
    )

    assert [r.to_json() for r, _ in batch_replies] == [
        r.to_json() for r in scalar_records
    ]
    for scalar_w, batch_w in zip(scalar_windows, batch_windows):
        assert (
            scalar_w.jobs, scalar_w.misses, scalar_w.violations,
            tuple(scalar_w._history),
        ) == (
            batch_w.jobs, batch_w.misses, batch_w.violations,
            tuple(batch_w._history),
        )
