"""Acceptance tests: campaign metrics are mode-independent.

The guarantee under test (ISSUE acceptance criteria): a seeded E5-style
campaign aggregates to the *identical* deterministic metrics view —
counters plus timer/histogram event counts (:func:`repro.obs.metrics.
stable_view`) — whether it runs serially, on shard runners, or across an
interrupt-and-resume.  Wall-clock fields are explicitly exempt.

The harness's own infrastructure counters (``harness.*``) legitimately
differ between modes (dispatch counts per worker, resume tallies), which
is why they live in :attr:`SupervisorResult.harness_metrics`, outside the
identity guarantee.
"""

import numpy as np
import pytest

from repro import runtime
from repro.cpu.assembler import assemble
from repro.experiments.coverage_table import (
    BRAKE_TASK_SOURCE,
    _e5_trial,
    make_brake_workload,
)
from repro.faults.campaign import TemInjectionHarness
from repro.faults.generators import random_fault_list
from repro.harness import CampaignSupervisor, SupervisorConfig
from repro.harness import supervisor as supervisor_mod
from repro.obs import metrics
from repro.obs.profile import DEFAULT_TOP_K

EXPERIMENTS = 150
SEED = 2005
MAX_COPIES = 3


def _payloads():
    harness = TemInjectionHarness(make_brake_workload(max_copies=MAX_COPIES))
    faults = random_fault_list(
        np.random.default_rng(SEED),
        EXPERIMENTS,
        max_step=max(harness.golden_steps * 2, 2),
        code_range=(0, assemble(BRAKE_TASK_SOURCE).size),
        data_range=(0x1800, 0x1902),
    )
    return [(MAX_COPIES, fault) for fault in faults]


def _run(payloads, workers=0, journal_path=None):
    """One E5 campaign inside its own capture (keeps tests isolated from
    the process-wide default registry)."""
    with metrics.capture():
        return CampaignSupervisor(
            _e5_trial,
            SupervisorConfig(
                workers=workers,
                journal_path=journal_path,
                master_seed=SEED,
                campaign=f"e5-metrics-n{EXPERIMENTS}",
            ),
        ).run(payloads)


def _assert_campaign_totals(result):
    snap = result.metrics_snapshot()
    assert snap["counters"]["tem.jobs"] == EXPERIMENTS
    assert snap["counters"]["injection.experiments"] == EXPERIMENTS
    # Effective faults split across the outcome counters completely.
    outcomes = sum(
        count for name, count in snap["counters"].items()
        if name.startswith("tem.outcome.")
    )
    assert outcomes == EXPERIMENTS


class _InterruptAt:
    """Trial wrapper raising KeyboardInterrupt *before* trial N runs.

    KeyboardInterrupt is not an Exception, so the supervisor's isolation
    boundary lets it through — exactly like a real Ctrl-C — after the
    journal has flushed every completed trial.
    """

    def __init__(self, at_trial):
        self.at_trial = at_trial
        self.calls = 0

    def __call__(self, payload, seed):
        if self.calls >= self.at_trial:
            raise KeyboardInterrupt
        self.calls += 1
        return _e5_trial(payload, seed)


class TestModeIndependence:
    @pytest.fixture(scope="class")
    def payloads(self):
        return _payloads()

    @pytest.fixture(scope="class")
    def serial(self, payloads):
        return _run(payloads)

    def test_trials_produce_metrics(self, serial):
        """An unjournaled serial run commits one snapshot per chunk, keyed
        by the chunk's first trial."""
        chunk = supervisor_mod._SERIAL_CHUNK
        assert sorted(serial.trial_metrics) == list(range(0, EXPERIMENTS, chunk))
        _assert_campaign_totals(serial)

    def test_journaled_trials_produce_metrics_per_trial(self, payloads, tmp_path):
        """A journaled run keeps the per-trial grain: one snapshot each."""
        journaled = _run(payloads, journal_path=tmp_path / "e5-per-trial.jsonl")
        assert sorted(journaled.trial_metrics) == list(range(EXPERIMENTS))
        _assert_campaign_totals(journaled)

    def test_harness_metrics_kept_separate(self, serial):
        assert "harness.trials_ok" in serial.harness_metrics["counters"]
        assert not any(
            name.startswith("harness.")
            for name in serial.metrics_snapshot().get("counters", {})
        )
        merged = serial.metrics_snapshot(include_harness=True)
        assert merged["counters"]["harness.trials_ok"] == EXPERIMENTS

    def test_serial_vs_parallel_identical_stable_view(self, payloads, serial):
        parallel = _run(payloads, workers=4)
        assert parallel.completed == EXPERIMENTS
        assert metrics.stable_view(parallel.metrics_snapshot()) == (
            metrics.stable_view(serial.metrics_snapshot())
        )
        # The simulated statistics agree too (same seeds, same trials).
        assert parallel.statistics().outcome_counts() == (
            serial.statistics().outcome_counts()
        )

    def test_interrupt_and_resume_does_not_double_count(
        self, payloads, serial, tmp_path
    ):
        journal = tmp_path / "e5-metrics.jsonl"
        interrupted = _InterruptAt(at_trial=60)
        with pytest.raises(KeyboardInterrupt):
            with metrics.capture():
                CampaignSupervisor(
                    interrupted,
                    SupervisorConfig(
                        journal_path=journal,
                        master_seed=SEED,
                        campaign=f"e5-metrics-n{EXPERIMENTS}",
                    ),
                ).run(payloads)
        assert 0 < interrupted.calls < EXPERIMENTS

        resumed = _run(payloads, journal_path=journal)
        assert resumed.resumed_trials == interrupted.calls
        assert metrics.stable_view(resumed.metrics_snapshot()) == (
            metrics.stable_view(serial.metrics_snapshot())
        )
        assert resumed.statistics().outcome_counts() == (
            serial.statistics().outcome_counts()
        )
        # Resume replayed journaled snapshots instead of re-running trials.
        resumed_counter = resumed.harness_metrics["counters"]
        assert resumed_counter["harness.trials_resumed"] == interrupted.calls
        assert resumed_counter["harness.trials_ok"] == (
            EXPERIMENTS - interrupted.calls
        )

    def test_campaign_surfaces_in_ambient_registry(self, payloads):
        with metrics.capture() as registry:
            CampaignSupervisor(
                _e5_trial,
                SupervisorConfig(master_seed=SEED, campaign="e5-ambient"),
            ).run(payloads[:20])
        assert registry.counter("tem.jobs") == 20
        assert registry.counter("harness.trials_ok") == 20

    def test_profiling_captures_hottest_trials(self, payloads):
        result = _run_profiled(payloads[:25])
        assert len(result.hot_trials) == DEFAULT_TOP_K
        durations = [t.duration_s for t in result.hot_trials]
        assert durations == sorted(durations, reverse=True)
        assert "function calls" in result.hot_trials[0].profile_text


def _run_profiled(payloads):
    profiled = runtime.RunContext(runtime.RunConfig(profile=True))
    with runtime.activate(profiled), metrics.capture():
        return CampaignSupervisor(
            _e5_trial,
            SupervisorConfig(master_seed=SEED, campaign="e5-profiled"),
        ).run(payloads)
