"""Containment, retry, degradation and parity tests of the supervisor."""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.coverage_table import (
    _e5_batch_runner,
    _e5_trial,
    e5_fault_payloads,
    make_brake_workload,
)
from repro.faults import TemInjectionHarness, random_fault_list
from repro.faults.outcomes import ExperimentRecord, OutcomeClass
from repro.harness import (
    DEFAULT_FSYNC_INTERVAL,
    CampaignSupervisor,
    SupervisorConfig,
    run_experiment_campaign,
)
from repro.harness import supervisor as supervisor_mod
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


@pytest.fixture
def retry_schedule(monkeypatch):
    """Set the module retry budget and backoff base for one test."""

    def apply(max_retries, backoff_base_s=supervisor_mod.BACKOFF_BASE_S):
        monkeypatch.setattr(supervisor_mod, "MAX_RETRIES", max_retries)
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE_S", backoff_base_s)

    return apply


# ----------------------------------------------------------------------
# Containment: crashes and hangs, serial and parallel
# ----------------------------------------------------------------------

class TestContainment:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_crash_and_hang_contained(self, workers, retry_schedule, run_config):
        """Acceptance: a crafted infinite-loop workload and a crafted
        crashing workload are both contained in serial and parallel mode —
        classified as harness failures while every other trial of the
        campaign completes."""
        retry_schedule(1)
        run_config(timeout_s=0.5)
        payloads = [0, 1, "crash", 2, "hang", 3, 4, 5]
        stats = run_experiment_campaign(
            _scripted_trial,
            payloads,
            SupervisorConfig(workers=workers, master_seed=9),
        )
        assert stats.total == len(payloads)
        assert stats.count(OutcomeClass.HARNESS_CRASH) == 1
        assert stats.count(OutcomeClass.HARNESS_TIMEOUT) == 1
        assert stats.valid == len(payloads) - 2
        # Every non-poisoned trial completed with its scripted outcome.
        assert stats.count(OutcomeClass.MASKED) == 3
        assert stats.count(OutcomeClass.NO_EFFECT) == 2
        assert stats.count(OutcomeClass.OMISSION) == 1

    def test_harness_failures_do_not_poison_coverage(
        self, retry_schedule, run_config
    ):
        """Acceptance: HARNESS_* outcomes are excluded from the coverage
        estimators — the estimates equal those of the same campaign
        without the poisoned trials."""
        retry_schedule(0)
        clean = run_experiment_campaign(
            _scripted_trial, list(range(8)),
            SupervisorConfig(workers=0, master_seed=9),
        )
        run_config(timeout_s=0.5)
        poisoned = run_experiment_campaign(
            _scripted_trial, list(range(8)) + ["hang", "crash"],
            SupervisorConfig(workers=0, master_seed=9),
        )
        assert poisoned.harness_failures == 2
        assert poisoned.coverage == clean.coverage
        assert poisoned.p_tem == clean.p_tem
        assert poisoned.p_omission == clean.p_omission
        assert poisoned.effective == clean.effective
        assert poisoned.completeness == pytest.approx(0.8)

    def test_trial_killing_its_runner_is_contained(self):
        """A trial that SIGKILLs the shard runner executing it kills each
        replacement too, until MAX_RETRIES + 1 runners died on it: then it
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

    def test_trials_longer_than_the_lease_ttl(self, run_config):
        """Runners heartbeat while a trial runs: a healthy trial longer
        than the lease TTL completes, and a hung one ends as a
        HARNESS_TIMEOUT from its own timeout_s, not a lease takeover."""
        run_config(timeout_s=3.0)
        result = CampaignSupervisor(
            _slow_trial,
            SupervisorConfig(workers=2, master_seed=9),
        ).run([0, "slow", 1, "hang"])
        assert not result.degraded
        assert sorted(result.results) == [0, 1, 2]
        assert result.failures[3].kind is OutcomeClass.HARNESS_TIMEOUT
        assert "harness.lease_takeovers" not in result.harness_metrics["counters"]

    def test_timeout_is_not_retried_but_crash_is(self, run_config):
        run_config(timeout_s=0.3)
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(workers=0, master_seed=1),
        ).run(["hang", "crash"])
        assert result.failures[0].kind is OutcomeClass.HARNESS_TIMEOUT
        assert result.failures[0].attempts == 1
        assert result.failures[1].kind is OutcomeClass.HARNESS_CRASH
        assert result.failures[1].attempts == 3  # initial + 2 retries


class TestRetry:
    def test_transient_failure_retried_with_backoff(self, retry_schedule):
        retry_schedule(2, backoff_base_s=0.01)
        _FLAKY_STATE["failures_left"] = 2
        result = CampaignSupervisor(
            _flaky_trial, SupervisorConfig(workers=0, master_seed=3),
        ).run([0])
        assert not result.failures
        assert result.results[0].outcome is OutcomeClass.MASKED

    def test_retry_budget_exhausts(self, retry_schedule):
        retry_schedule(1, backoff_base_s=0.01)
        _FLAKY_STATE["failures_left"] = 10
        result = CampaignSupervisor(
            _flaky_trial, SupervisorConfig(workers=0, master_seed=3),
        ).run([0])
        _FLAKY_STATE["failures_left"] = 0
        assert result.failures[0].kind is OutcomeClass.HARNESS_CRASH
        assert result.failures[0].attempts == 2

    def test_backoff_is_exponential_and_capped(self):
        backoff_s = supervisor_mod.backoff_s
        assert backoff_s(1) == pytest.approx(0.05)
        assert backoff_s(2) == pytest.approx(0.1)
        assert backoff_s(3) == pytest.approx(0.2)
        assert backoff_s(10) == pytest.approx(2.0)


def _stop_after(trial_id):
    """An ``after_trial`` hook that stops the campaign after *trial_id*."""
    return lambda done_id, harness_failures: done_id >= trial_id


class TestGracefulDegradation:
    def test_after_trial_stop_returns_partial_stats(self):
        """A serial ``after_trial`` hook returning true stops dispatching:
        the run returns degraded statistics over the completed trials."""
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=0, master_seed=4, after_trial=_stop_after(9),
            ),
        ).run(list(range(50)))
        assert result.degraded
        assert sorted(result.results) == list(range(10))
        stats = result.statistics()
        assert stats.planned_trials == 50
        assert stats.completeness < 1.0

    def test_batched_stop_finishes_the_chunk(self):
        """Batched, the hook runs after each chunk commit: a stop request
        takes effect at the next chunk boundary."""
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=0, master_seed=4, after_trial=_stop_after(4),
                batch_size=4, batch_runner=_scripted_batch_runner,
            ),
        ).run(list(range(20)))
        assert result.degraded
        assert sorted(result.results) == list(range(8))
        assert result.statistics().planned_trials == 20

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(trial_offset=-1)


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

    def test_profiled_run_forces_scalar_path(self, run_config):
        """Profiling needs per-trial calls: the runner is never used."""
        run_config(profile=True)
        result = CampaignSupervisor(
            _scripted_trial,
            SupervisorConfig(
                workers=0, master_seed=1,
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

    def test_batched_e5_metrics_match_scalar(self):
        """E5 through the lockstep executor with a partial last chunk: each
        completed trial is one ``harness.trial_duration_s`` observation and
        one ``harness.trials_ok``, and the merged trial metrics (fast-path
        lanes share a snapshot object) have the scalar run's stable view."""
        payloads = e5_fault_payloads(100, seed=2005)
        with metrics.capture():
            batched = CampaignSupervisor(_e5_trial, SupervisorConfig(
                workers=0, master_seed=5, batch_size=32,
                batch_runner=_e5_batch_runner,
            )).run(payloads)
            scalar = CampaignSupervisor(
                _e5_trial, SupervisorConfig(workers=0, master_seed=5)
            ).run(payloads)
        harness = batched.harness_metrics
        assert harness["counters"]["harness.batch_chunks"] == 4  # 3 x 32 + 4
        assert harness["counters"]["harness.trials_ok"] == len(payloads)
        histogram = harness["histograms"]["harness.trial_duration_s"]
        assert histogram["count"] == sum(histogram["counts"]) == len(payloads)
        assert [r.to_json() for r in batched.statistics().records] == [
            r.to_json() for r in scalar.statistics().records
        ]
        assert metrics.stable_view(batched.metrics_snapshot()) == metrics.stable_view(
            scalar.metrics_snapshot()
        )

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
        """A batched campaign journals (and, with chunks of at least the
        fsync interval, fsyncs) one record per chunk; resuming from those
        records gives the identical records and metrics as the run that
        wrote them, and as a scalar run."""
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        journal = tmp_path / "chunks.jsonl"
        chunk = DEFAULT_FSYNC_INTERVAL
        payloads = list(range(3 * chunk))
        config = SupervisorConfig(
            workers=0, master_seed=12, journal_path=journal,
            batch_size=chunk, batch_runner=_metered_batch_runner,
        )
        with metrics.capture():
            first = CampaignSupervisor(_metered_trial, config).run(payloads)
        chunks = first.harness_metrics["counters"]["harness.batch_chunks"]
        assert chunks == 3
        assert len(fsyncs) == chunks + 1  # one per chunk commit, one on close

        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["header"] + ["chunk"] * chunks
        assert [[t["trial_id"] for t in line["trials"]] for line in lines[1:]] == [
            payloads[:chunk], payloads[chunk:2 * chunk], payloads[2 * chunk:],
        ]
        # The chunk carries the merged snapshot; its trials carry none.
        assert all(
            "metrics" not in trial for line in lines[1:] for trial in line["trials"]
        )
        assert [line["metrics"]["counters"]["toy.trials"] for line in lines[1:]] == [
            chunk, chunk, chunk,
        ]
        # One snapshot per journal record, keyed by its first trial.
        assert sorted(first.trial_metrics) == [0, chunk, 2 * chunk]

        with metrics.capture():
            resumed = CampaignSupervisor(_metered_trial, config).run(payloads)
            scalar = CampaignSupervisor(
                _metered_trial, SupervisorConfig(workers=0, master_seed=12),
            ).run(payloads)
        assert resumed.resumed_trials == len(payloads)
        assert journal.read_text().count("\n") == 1 + chunks  # nothing re-run
        records = [r.to_json() for r in first.statistics().records]
        assert [r.to_json() for r in resumed.statistics().records] == records
        assert [r.to_json() for r in scalar.statistics().records] == records
        assert resumed.trial_metrics == first.trial_metrics
        view = metrics.stable_view(first.metrics_snapshot())
        assert view["counters"]["toy.trials"] == len(payloads)
        assert metrics.stable_view(resumed.metrics_snapshot()) == view
        assert metrics.stable_view(scalar.metrics_snapshot()) == view
        # Gauges stay last-write-wins in trial order.
        for result in (first, resumed, scalar):
            assert result.metrics_snapshot()["gauges"] == {
                "toy.last_payload": payloads[-1],
            }
