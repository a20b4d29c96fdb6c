"""Containment, retry, degradation and parity tests of the supervisor."""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.coverage_table import _e5_trial, make_brake_workload
from repro.faults import TemInjectionHarness, random_fault_list
from repro.faults.outcomes import ExperimentRecord, OutcomeClass
from repro.harness import (
    CampaignSupervisor,
    SupervisorConfig,
    run_experiment_campaign,
)
from repro.obs import metrics

# ----------------------------------------------------------------------
# Toy deterministic trial functions (module level: picklable everywhere)
# ----------------------------------------------------------------------

_OUTCOME_CYCLE = (
    OutcomeClass.MASKED,
    OutcomeClass.NO_EFFECT,
    OutcomeClass.MASKED,
    OutcomeClass.OMISSION,
)


def _scripted_trial(payload, seed):
    """Deterministic trial: 'crash' raises, 'hang' spins, ints classify."""
    if payload == "crash":
        raise RuntimeError("deliberate crash workload")
    if payload == "hang":
        while True:  # crafted infinite loop — only a kill stops this
            pass
    return ExperimentRecord(
        outcome=_OUTCOME_CYCLE[payload % len(_OUTCOME_CYCLE)],
        fault_description=f"trial {payload} seed {seed}",
    )


def _runner_killing_trial(payload, seed):
    """'die' SIGKILLs the process executing it; ints classify as usual."""
    if payload == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return _scripted_trial(payload, seed)


def _slow_trial(payload, seed):
    """'slow' outlasts the default lease TTL (2 s) but finishes."""
    if payload == "slow":
        time.sleep(2.3)
        payload = 0
    return _scripted_trial(payload, seed)


_FLAKY_STATE = {"failures_left": 0}


def _flaky_trial(payload, seed):
    """Fails the first N times it is called, then succeeds (serial mode)."""
    if _FLAKY_STATE["failures_left"] > 0:
        _FLAKY_STATE["failures_left"] -= 1
        raise OSError("transient harness failure")
    return ExperimentRecord(OutcomeClass.MASKED, f"flaky {payload}")


# ----------------------------------------------------------------------
# Containment: crashes and hangs, serial and parallel
# ----------------------------------------------------------------------

class TestContainment:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_crash_and_hang_contained(self, workers):
        """Acceptance: a crafted infinite-loop workload and a crafted
        crashing workload are both contained in serial and parallel mode —
        classified as harness failures while every other trial of the
        campaign completes."""
        payloads = [0, 1, "crash", 2, "hang", 3, 4, 5]
        stats = run_experiment_campaign(
            _scripted_trial,
            payloads,
            SupervisorConfig(
                workers=workers, timeout_s=0.5, max_retries=1, master_seed=9,
            ),
        )
        assert stats.total == len(payloads)
        assert stats.count(OutcomeClass.HARNESS_CRASH) == 1
        assert stats.count(OutcomeClass.HARNESS_TIMEOUT) == 1
        assert stats.valid == len(payloads) - 2
        # Every non-poisoned trial completed with its scripted outcome.
        assert stats.count(OutcomeClass.MASKED) == 3
        assert stats.count(OutcomeClass.NO_EFFECT) == 2
        assert stats.count(OutcomeClass.OMISSION) == 1

    def test_harness_failures_do_not_poison_coverage(self):
        """Acceptance: HARNESS_* outcomes are excluded from the coverage
        estimators — the estimates equal those of the same campaign
        without the poisoned trials."""
        clean = run_experiment_campaign(
            _scripted_trial, list(range(8)),
            SupervisorConfig(workers=0, master_seed=9),
        )
        poisoned = run_experiment_campaign(
            _scripted_trial, list(range(8)) + ["hang", "crash"],
            SupervisorConfig(workers=0, timeout_s=0.5, max_retries=0, master_seed=9),
        )
        assert poisoned.harness_failures == 2
        assert poisoned.coverage == clean.coverage
        assert poisoned.p_tem == clean.p_tem
        assert poisoned.p_omission == clean.p_omission
        assert poisoned.effective == clean.effective
        assert poisoned.completeness == pytest.approx(0.8)

    def test_trial_killing_its_runner_is_contained(self):
        """A trial that SIGKILLs the shard runner executing it kills each
        replacement too, until max_retries + 1 runners died on it: then it
        is recorded as HARNESS_CRASH and the rest of its shard runs."""
        # workers=2 splits the six payloads 3 + 3: "die" opens shard 1.
        result = CampaignSupervisor(
            _runner_killing_trial,
            SupervisorConfig(workers=2, master_seed=9),
        ).run([0, 1, 2, "die", 3, 4])
        assert not result.degraded
        assert sorted(result.results) == [0, 1, 2, 4, 5]
        assert list(result.failures) == [3]
        assert result.failures[3].kind is OutcomeClass.HARNESS_CRASH
        assert result.failures[3].attempts == 3  # initial + 2 retries
        counters = result.harness_metrics["counters"]
        assert counters["harness.lease_takeovers"] == 3
        assert counters["harness.harness_crash"] == 1
        assert "harness.shards_abandoned" not in counters

    def test_trials_longer_than_the_lease_ttl(self):
        """Runners heartbeat while a trial runs: a healthy trial longer
        than the lease TTL completes, and a hung one ends as a
        HARNESS_TIMEOUT from its own timeout_s, not a lease takeover."""
        result = CampaignSupervisor(
            _slow_trial,
            SupervisorConfig(workers=2, timeout_s=3.0, master_seed=9),
        ).run([0, "slow", 1, "hang"])
        assert not result.degraded
        assert sorted(result.results) == [0, 1, 2]
        assert result.failures[3].kind is OutcomeClass.HARNESS_TIMEOUT
        assert "harness.lease_takeovers" not in result.harness_metrics["counters"]

    def test_timeout_is_not_retried_but_crash_is(self):
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(workers=0, timeout_s=0.3, max_retries=2, master_seed=1),
        ).run(["hang", "crash"])
        assert result.failures[0].kind is OutcomeClass.HARNESS_TIMEOUT
        assert result.failures[0].attempts == 1
        assert result.failures[1].kind is OutcomeClass.HARNESS_CRASH
        assert result.failures[1].attempts == 3  # initial + 2 retries


class TestRetry:
    def test_transient_failure_retried_with_backoff(self):
        _FLAKY_STATE["failures_left"] = 2
        result = CampaignSupervisor(
            _flaky_trial,
            SupervisorConfig(
                workers=0, max_retries=2, backoff_base_s=0.01, master_seed=3,
            ),
        ).run([0])
        assert not result.failures
        assert result.results[0].outcome is OutcomeClass.MASKED

    def test_retry_budget_exhausts(self):
        _FLAKY_STATE["failures_left"] = 10
        result = CampaignSupervisor(
            _flaky_trial,
            SupervisorConfig(
                workers=0, max_retries=1, backoff_base_s=0.01, master_seed=3,
            ),
        ).run([0])
        _FLAKY_STATE["failures_left"] = 0
        assert result.failures[0].kind is OutcomeClass.HARNESS_CRASH

    def test_backoff_is_exponential_and_capped(self):
        config = SupervisorConfig(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5,
        )
        assert config.backoff_s(1) == pytest.approx(0.1)
        assert config.backoff_s(2) == pytest.approx(0.2)
        assert config.backoff_s(3) == pytest.approx(0.4)
        assert config.backoff_s(10) == pytest.approx(0.5)


class TestGracefulDegradation:
    def test_budget_exhaustion_returns_partial_statistics(self):
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(workers=0, budget_s=0.0, master_seed=4),
        ).run(list(range(50)))
        assert result.degraded
        assert result.completed < 50
        stats = result.statistics()
        assert stats.planned_trials == 50
        assert stats.completeness < 1.0

    def test_failure_cap_stops_dispatch(self):
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=0, max_retries=0, max_harness_failures=3, master_seed=4,
            ),
        ).run(["crash"] * 10)
        assert result.degraded
        assert len(result.failures) == 3

    def test_failure_cap_is_campaign_wide(self):
        """Shard runners share one failure count: the campaign stops near
        the cap (each runner finishes the trial in flight), not at the
        cap times the number of runners."""
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=2, max_retries=0, max_harness_failures=3, master_seed=4,
            ),
        ).run(["crash"] * 10)
        assert result.degraded
        assert 3 <= len(result.failures) <= 3 + 1  # cap + workers - 1
        assert not result.results

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(max_retries=-1)


# ----------------------------------------------------------------------
# Serial / parallel parity on the real E5 workload
# ----------------------------------------------------------------------

class TestSerialParallelParity:
    def test_workers_0_and_2_agree_on_fixed_fault_list(self):
        """Acceptance: the same fault list yields identical records (not
        just identical counts) serially and on shard runners."""
        harness = TemInjectionHarness(make_brake_workload(max_copies=3))
        faults = random_fault_list(
            np.random.default_rng(77), 80,
            max_step=max(harness.golden_steps * 2, 2),
            code_range=(0, 40), data_range=(0x1800, 0x1902),
        )
        payloads = [(3, fault) for fault in faults]
        serial = run_experiment_campaign(
            _e5_trial, payloads, SupervisorConfig(workers=0, master_seed=77),
        )
        parallel = run_experiment_campaign(
            _e5_trial, payloads, SupervisorConfig(workers=2, master_seed=77),
        )
        assert serial.outcome_counts() == parallel.outcome_counts()
        assert [r.to_json() for r in serial.records] == [
            r.to_json() for r in parallel.records
        ]
        assert serial.coverage == parallel.coverage

    def test_toy_parity_with_chunking(self):
        payloads = list(range(37))
        serial = run_experiment_campaign(
            _scripted_trial, payloads, SupervisorConfig(workers=0, master_seed=5),
        )
        parallel = run_experiment_campaign(
            _scripted_trial, payloads, SupervisorConfig(
                workers=3, master_seed=5,
                batch_size=4, batch_runner=_scripted_batch_runner,
            ),
        )
        assert [r.to_json() for r in serial.records] == [
            r.to_json() for r in parallel.records
        ]


# ----------------------------------------------------------------------
# Batched serial execution (batch_size / batch_runner)
# ----------------------------------------------------------------------

def _scripted_batch_runner(payloads, seeds):
    """The reference batch runner: trial-at-a-time, reply per payload."""
    return [(_scripted_trial(p, s), None) for p, s in zip(payloads, seeds)]


def _poisoned_batch_runner(payloads, seeds):
    """Raises on the chunk carrying payload 3 (fallback coverage)."""
    if 3 in payloads:
        raise RuntimeError("deliberate batch runner failure")
    return _scripted_batch_runner(payloads, seeds)


def _short_batch_runner(payloads, seeds):
    """Misshapen reply: one reply short — must trigger the fallback."""
    return _scripted_batch_runner(payloads, seeds)[:-1]


def _exploding_batch_runner(payloads, seeds):
    raise AssertionError("batch runner must not be called on this path")


def _metered_trial(payload, seed):
    """:func:`_scripted_trial` that also records counters and a gauge."""
    metrics.inc("toy.trials")
    metrics.inc(f"toy.parity.{payload % 2}")
    metrics.gauge("toy.last_payload", payload)
    return _scripted_trial(payload, seed)


def _metered_batch_runner(payloads, seeds):
    """Batch twin of :func:`_metered_trial`: one captured snapshot each."""
    replies = []
    for payload, seed in zip(payloads, seeds):
        with metrics.capture() as registry:
            result = _metered_trial(payload, seed)
        replies.append((result, registry.snapshot()))
    return replies


class TestBatchedExecution:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(batch_size=-1)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(batch_size=2)  # no batch_runner supplied
        SupervisorConfig(batch_size=0)  # scalar default stays valid

    def test_batched_matches_scalar(self):
        payloads = list(range(11))
        scalar = run_experiment_campaign(
            _scripted_trial, payloads, SupervisorConfig(workers=0, master_seed=9),
        )
        batched = run_experiment_campaign(
            _scripted_trial,
            payloads,
            SupervisorConfig(
                workers=0, master_seed=9,
                batch_size=3, batch_runner=_scripted_batch_runner,
            ),
        )
        # Seeds ride inside the record text, so record equality proves the
        # batch path derives the same per-trial seeds as the scalar path.
        assert [r.to_json() for r in batched.records] == [
            r.to_json() for r in scalar.records
        ]
        assert batched.outcome_counts() == scalar.outcome_counts()

    def test_chunk_accounting_is_observable(self):
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=0, master_seed=9,
                batch_size=3, batch_runner=_scripted_batch_runner,
            ),
        ).run(list(range(7)))
        counters = result.harness_metrics["counters"]
        assert counters["harness.batch_chunks"] == 3  # 3 + 3 + 1
        assert "harness.batch_fallbacks" not in counters
        assert counters["harness.trials_ok"] == 7

    def test_runner_exception_falls_back_per_chunk(self):
        """A raising runner poisons one chunk only; its trials rerun
        scalar through the usual retry machinery and later chunks keep
        batching — final records are identical to a scalar campaign."""
        payloads = list(range(10))
        scalar = run_experiment_campaign(
            _scripted_trial, payloads, SupervisorConfig(workers=0, master_seed=2),
        )
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=0, master_seed=2,
                batch_size=4, batch_runner=_poisoned_batch_runner,
            ),
        ).run(payloads)
        assert [r.to_json() for r in result.statistics().records] == [
            r.to_json() for r in scalar.records
        ]
        counters = result.harness_metrics["counters"]
        assert counters["harness.batch_fallbacks"] == 1  # chunk [0..3] only
        assert counters["harness.batch_chunks"] == 3

    def test_misshapen_reply_falls_back(self):
        payloads = list(range(5))
        scalar = run_experiment_campaign(
            _scripted_trial, payloads, SupervisorConfig(workers=0, master_seed=6),
        )
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=0, master_seed=6,
                batch_size=5, batch_runner=_short_batch_runner,
            ),
        ).run(payloads)
        assert [r.to_json() for r in result.statistics().records] == [
            r.to_json() for r in scalar.records
        ]
        assert result.harness_metrics["counters"]["harness.batch_fallbacks"] == 1

    def test_profiled_run_forces_scalar_path(self):
        """profile_top_k needs per-trial calls: the runner is never used."""
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=0, master_seed=1, profile_top_k=1,
                batch_size=4, batch_runner=_exploding_batch_runner,
            ),
        ).run(list(range(6)))
        assert len(result.results) == 6
        assert "harness.batch_chunks" not in result.harness_metrics["counters"]

    def test_worker_mode_batches_inside_runners(self):
        """Each shard runner steps its slice in batch chunks, and the
        runners' harness counters reach the coordinator's metrics."""
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=2, master_seed=3,
                batch_size=4, batch_runner=_scripted_batch_runner,
            ),
        ).run(list(range(6)))
        assert len(result.results) == 6
        counters = result.harness_metrics["counters"]
        assert counters["harness.batch_chunks"] == 2  # one 3-trial slice each
        assert counters["harness.trials_dispatched"] == 6
        assert "harness.batch_fallbacks" not in counters

    def test_batched_journal_resumes(self, tmp_path):
        """A batched campaign's journal replays like a scalar one."""
        journal = tmp_path / "batched.jsonl"
        config = SupervisorConfig(
            workers=0, master_seed=12, journal_path=journal,
            batch_size=3, batch_runner=_scripted_batch_runner,
        )
        first = CampaignSupervisor(_scripted_trial, config).run(list(range(8)))
        resumed = CampaignSupervisor(_scripted_trial, config).run(list(range(8)))
        assert resumed.resumed_trials == 8
        assert [r.to_json() for r in resumed.statistics().records] == [
            r.to_json() for r in first.statistics().records
        ]

    def test_journal_commits_once_per_chunk(self, tmp_path, monkeypatch):
        """A batched campaign journals (and fsyncs) one record per chunk;
        resuming from those records gives the identical records and
        metrics as the run that wrote them, and as a scalar run."""
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        journal = tmp_path / "chunks.jsonl"
        payloads = list(range(8))
        config = SupervisorConfig(
            workers=0, master_seed=12, journal_path=journal, fsync_interval=1,
            batch_size=3, batch_runner=_metered_batch_runner,
        )
        with metrics.capture():
            first = CampaignSupervisor(_metered_trial, config).run(payloads)
        chunks = first.harness_metrics["counters"]["harness.batch_chunks"]
        assert chunks == 3  # 3 + 3 + 2
        assert len(fsyncs) == chunks + 1  # one per chunk commit, one on close

        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["header"] + ["chunk"] * chunks
        assert [[t["trial_id"] for t in line["trials"]] for line in lines[1:]] == [
            [0, 1, 2], [3, 4, 5], [6, 7],
        ]
        # The chunk carries the merged snapshot; its trials carry none.
        assert all(
            "metrics" not in trial for line in lines[1:] for trial in line["trials"]
        )
        assert [line["metrics"]["counters"]["toy.trials"] for line in lines[1:]] == [
            3, 3, 2,
        ]
        # One snapshot per journal record, keyed by its first trial.
        assert sorted(first.trial_metrics) == [0, 3, 6]

        with metrics.capture():
            resumed = CampaignSupervisor(_metered_trial, config).run(payloads)
            scalar = CampaignSupervisor(
                _metered_trial, SupervisorConfig(workers=0, master_seed=12),
            ).run(payloads)
        assert resumed.resumed_trials == 8
        assert journal.read_text().count("\n") == 1 + chunks  # nothing re-run
        records = [r.to_json() for r in first.statistics().records]
        assert [r.to_json() for r in resumed.statistics().records] == records
        assert [r.to_json() for r in scalar.statistics().records] == records
        assert resumed.trial_metrics == first.trial_metrics
        view = metrics.stable_view(first.metrics_snapshot())
        assert view["counters"]["toy.trials"] == 8
        assert metrics.stable_view(resumed.metrics_snapshot()) == view
        assert metrics.stable_view(scalar.metrics_snapshot()) == view
        # Gauges stay last-write-wins in trial order.
        for result in (first, resumed, scalar):
            assert result.metrics_snapshot()["gauges"] == {"toy.last_payload": 7}
