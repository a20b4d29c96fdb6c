"""Chunked serial campaigns: one metrics capture and one commit per chunk.

An unjournaled serial run with no ``after_trial`` hook runs its trials in
chunks of ``_SERIAL_CHUNK``.  These tests pin that the chunk grain is
invisible in what a campaign produces — records and the
:func:`repro.obs.metrics.stable_view` match the per-trial path (journal),
shard runners, a killed-and-resumed run and a ``batch_runner`` run — and
that a trial failing inside a chunk is charged exactly as on the
per-trial path.
"""

import json
import multiprocessing
import os
import signal
from collections import Counter

import pytest

from repro.experiments.coverage_table import (
    _e5_batch_runner,
    _e5_trial,
    e5_fault_payloads,
)
from repro.faults.outcomes import ExperimentRecord, OutcomeClass
from repro.harness import CampaignSupervisor, SupervisorConfig
from repro.harness import supervisor as supervisor_mod
from repro.obs import metrics

SEED = 31
TOY_TRIALS = 150
E5_TRIALS = 300


def _metered_trial(payload, seed):
    """Deterministic toy trial recording every kind of metric."""
    metrics.inc("toy.trials")
    metrics.inc(f"toy.parity.{payload % 2}", payload % 5 + 1)
    metrics.gauge("toy.last_payload", payload)
    metrics.observe_duration("toy.step", 1e-6 * (payload % 7))
    metrics.observe("toy.size", float(payload % 11), bounds=(2.0, 5.0, 8.0))
    return ExperimentRecord(
        outcome=(OutcomeClass.MASKED, OutcomeClass.NO_EFFECT)[payload % 2],
        fault_description=f"toy {payload} seed {seed}",
    )


def _metered_batch_runner(payloads, seeds):
    """Reference batch runner: one captured snapshot per trial."""
    replies = []
    for payload, seed in zip(payloads, seeds):
        with metrics.capture() as registry:
            result = _metered_trial(payload, seed)
        replies.append((result, registry.snapshot()))
    return replies


def _run(trial_fn, payloads, **fields):
    with metrics.capture():
        return CampaignSupervisor(
            trial_fn,
            SupervisorConfig(master_seed=SEED, campaign="chunked", **fields),
        ).run(payloads)


def _fingerprint(result):
    """Records (in trial order) and the byte-level stable view."""
    records = [record.to_json() for record in result.statistics().records]
    return records, json.dumps(metrics.stable_view(result.metrics_snapshot()))


def _killed_then_resumed(trial_fn, payloads, journal, kill_after):
    """Run a journaled campaign in a forked child that SIGKILLs itself
    after committing trial *kill_after*, then resume it here."""

    def die_after(trial_id, harness_failures):
        if trial_id == kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    def child():
        _run(trial_fn, payloads, journal_path=journal, after_trial=die_after)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(60)
    assert process.exitcode == -signal.SIGKILL
    resumed = _run(trial_fn, payloads, journal_path=journal)
    assert resumed.resumed_trials == kill_after + 1
    return resumed


def _assert_modes_agree(trial_fn, batch_runner, payloads, tmp_path):
    chunked = _run(trial_fn, payloads)
    # The unjournaled serial run committed one snapshot per chunk.
    chunk = supervisor_mod._SERIAL_CHUNK
    assert sorted(chunked.trial_metrics) == list(range(0, len(payloads), chunk))
    counters = chunked.harness_metrics["counters"]
    assert counters["harness.batch_chunks"] == -(-len(payloads) // chunk)
    assert "harness.batch_fallbacks" not in counters
    histogram = chunked.harness_metrics["histograms"]["harness.trial_duration_s"]
    assert histogram["count"] == len(payloads)

    per_trial = _run(trial_fn, payloads, journal_path=tmp_path / "per-trial.jsonl")
    assert sorted(per_trial.trial_metrics) == list(range(len(payloads)))
    expected = _fingerprint(per_trial)
    assert _fingerprint(chunked) == expected
    assert _fingerprint(_run(trial_fn, payloads, workers=2)) == expected
    assert _fingerprint(_run(
        trial_fn, payloads, batch_size=32, batch_runner=batch_runner,
    )) == expected
    assert _fingerprint(_killed_then_resumed(
        trial_fn, payloads, tmp_path / "killed.jsonl", kill_after=len(payloads) // 3,
    )) == expected
    # Gauges stay last-write-wins in trial order.
    assert (
        chunked.metrics_snapshot().get("gauges")
        == per_trial.metrics_snapshot().get("gauges")
    )


class TestChunkedEquivalence:
    def test_toy_campaign_matches_every_mode(self, tmp_path):
        _assert_modes_agree(
            _metered_trial, _metered_batch_runner, list(range(TOY_TRIALS)), tmp_path
        )

    def test_e5_campaign_matches_every_mode(self, tmp_path):
        _assert_modes_agree(
            _e5_trial, _e5_batch_runner, e5_fault_payloads(E5_TRIALS, seed=2005),
            tmp_path,
        )

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_is_invisible(self, chunk, monkeypatch):
        reference = _fingerprint(_run(_metered_trial, list(range(40))))
        monkeypatch.setattr(supervisor_mod, "_SERIAL_CHUNK", chunk)
        result = _run(_metered_trial, list(range(40)))
        assert len(result.trial_metrics) == -(-40 // chunk)
        assert _fingerprint(result) == reference

    def test_hooked_run_keeps_the_per_trial_grain(self):
        result = _run(
            _metered_trial, list(range(10)), after_trial=lambda tid, lost: None,
        )
        assert sorted(result.trial_metrics) == list(range(10))
        assert "harness.batch_chunks" not in result.harness_metrics["counters"]


# ----------------------------------------------------------------------
# Failures inside a chunk
# ----------------------------------------------------------------------

class _Scripted:
    """Toy trial with scripted failures.

    ``"once"`` raises on its first call only, ``"crash"`` always raises,
    ``"hang"`` spins until interrupted and ``"interrupt"`` raises
    ``KeyboardInterrupt``; ints run :func:`_metered_trial`.  Calls are
    counted per payload.
    """

    def __init__(self):
        self.calls = Counter()

    def __call__(self, payload, seed):
        self.calls[payload] += 1
        if payload == "once" and self.calls[payload] == 1:
            raise OSError("first attempt fails")
        if payload == "crash":
            raise RuntimeError("deliberate crash")
        if payload == "hang":
            while True:
                pass
        if payload == "interrupt":
            raise KeyboardInterrupt
        if payload == "once":
            payload = 1000
        return _metered_trial(payload, seed)


@pytest.fixture
def fast_retries(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE_S", 0.001)


def _per_trial_and_chunked(payloads, tmp_path):
    """The same scripted campaign on the per-trial path (journaled) and
    the chunked path (unjournaled), each with fresh call counts."""
    per_trial_fn, chunked_fn = _Scripted(), _Scripted()
    per_trial = _run(per_trial_fn, payloads, journal_path=tmp_path / "ref.jsonl")
    chunked = _run(chunked_fn, payloads)
    return per_trial, chunked, per_trial_fn, chunked_fn


def _assert_same_outcome(per_trial, chunked):
    assert chunked.failures == per_trial.failures
    assert _fingerprint(chunked) == _fingerprint(per_trial)
    for name in (
        "harness.trials_ok", "harness.retries", "harness.trials_dispatched",
        "harness.harness_crash", "harness.harness_timeout",
    ):
        assert (
            chunked.harness_metrics["counters"].get(name)
            == per_trial.harness_metrics["counters"].get(name)
        ), name
    assert chunked.harness_metrics["counters"]["harness.batch_fallbacks"] == 1


class TestChunkFailures:
    def test_raise_on_first_attempt(self, fast_retries, tmp_path):
        payloads = [0, 1, 2, "once", 3, 4, "crash", 5]
        per_trial, chunked, per_trial_fn, chunked_fn = _per_trial_and_chunked(
            payloads, tmp_path
        )
        _assert_same_outcome(per_trial, chunked)
        # The chunk's failed call was the trial's first attempt: it ran
        # twice on either path, and "crash" used its full retry budget.
        assert chunked_fn.calls["once"] == per_trial_fn.calls["once"] == 2
        crash = chunked.failures[6]
        assert crash.kind is OutcomeClass.HARNESS_CRASH
        assert crash.attempts == supervisor_mod.MAX_RETRIES + 1
        assert crash.detail == "RuntimeError: deliberate crash"
        assert chunked.results[3] == per_trial.results[3]
        # The chunk's other trials kept their records and metrics.
        assert sorted(chunked.results) == [0, 1, 2, 3, 4, 5, 7]
        counters = chunked.metrics_snapshot()["counters"]
        assert counters["toy.trials"] == 7

    def test_timeout(self, run_config, tmp_path):
        run_config(timeout_s=0.2)
        payloads = [0, 1, "hang", 2, 3]
        per_trial, chunked, _, chunked_fn = _per_trial_and_chunked(payloads, tmp_path)
        _assert_same_outcome(per_trial, chunked)
        timeout = chunked.failures[2]
        assert timeout.kind is OutcomeClass.HARNESS_TIMEOUT
        assert timeout.attempts == 1
        assert timeout.detail == "trial exceeded 0.200s budget"
        # A hang is charged its chunk attempt, not run again.
        assert chunked_fn.calls["hang"] == 1
        assert chunked.metrics_snapshot()["counters"]["toy.trials"] == 4
        assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL

    @pytest.mark.parametrize("timeout_s", [None, 5.0])
    def test_keyboard_interrupt_propagates(self, timeout_s, run_config):
        run_config(timeout_s=timeout_s)
        depth = len(metrics.capture_stack())
        trial_fn = _Scripted()
        with pytest.raises(KeyboardInterrupt):
            _run(trial_fn, [0, 1, "interrupt", 2])
        assert trial_fn.calls == Counter({0: 1, 1: 1, "interrupt": 1})
        assert len(metrics.capture_stack()) == depth
        assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
