"""THE chaos acceptance gate: recovered == undisturbed, bit-identically.

Each schedule attacks the sharded E5 campaign a different way — a shard
runner SIGKILLed mid-campaign, a wedged runner whose heartbeats stop
until the coordinator expires its lease, a SIGKILL compounded with a torn
journal tail the replacement runner must salvage.  Under **every**
schedule the recovered campaign must reproduce the undisturbed serial
run's per-outcome counts, EDM mechanism histogram and deterministic
observability view exactly as frozen in ``golden_campaign_e5.json`` (the
same fixture the execution-mode gate in
``tests/faults/test_golden_campaign.py`` enforces).  The stall and the
SIGKILL-plus-tear schedules run a second time with every shard runner
batching 16-trial chunks: there a runner commits one journal record per
chunk, ``die``/``stall`` fire after the chunk holding their trial is
committed, and a tear loses that whole chunk.
"""

import json
from pathlib import Path

import pytest

from repro import runtime
from repro.experiments.coverage_table import (
    _e5_batch_runner,
    _e5_trial,
    e5_fault_payloads,
)
from repro.harness import ShardConfig, SupervisorConfig, run_sharded_campaign
from repro.obs import metrics

EXPERIMENTS = 150
SEED = 2005
MAX_COPIES = 3
GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "faults" / "golden_campaign_e5.json"
)

#: name -> (chaos spec, expectations on the harness-health counters).
SCHEDULES = {
    "runner-sigkill": ("die:40", {"harness.lease_takeovers": 1}),
    "heartbeat-stall": ("stall:80", {"harness.lease_takeovers": 1}),
    "sigkill-plus-torn-journal": (
        "die:40,corrupt:0:tear",
        {
            "harness.lease_takeovers": 1,
            "harness.chaos_journal_corruptions": 1,
            "harness.journal_salvages": 1,
        },
    ),
}


#: Schedules also run with batching shard runners (one record per chunk).
BATCHED_SCHEDULES = ("heartbeat-stall", "sigkill-plus-torn-journal")


@pytest.fixture(scope="module")
def payloads():
    return e5_fault_payloads(EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _freeze(result):
    stats = result.statistics()
    return {
        "experiments": EXPERIMENTS,
        "seed": SEED,
        "max_copies": MAX_COPIES,
        "outcome_counts": stats.outcome_counts(),
        "mechanism_counts": dict(sorted(stats.mechanism_counts().items())),
        "stable_view": metrics.stable_view(result.metrics_snapshot()),
    }


def _assert_recovers(tmp_path, payloads, golden, name, **batch):
    spec, expected_counters = SCHEDULES[name]
    chaos = runtime.RunContext(runtime.RunConfig(chaos=spec, chaos_seed=7))
    with runtime.activate(chaos), metrics.capture():
        result = run_sharded_campaign(
            _e5_trial,
            payloads,
            SupervisorConfig(
                workers=2,
                master_seed=SEED,
                campaign=f"e5-golden-n{EXPERIMENTS}",
                journal_path=tmp_path / "e5.jsonl",
                **batch,
            ),
            ShardConfig(lease_ttl_s=1.2, heartbeat_s=0.1, poll_s=0.03),
        )
    # The chaos actually happened — this is a recovery test, not a lucky
    # undisturbed run.
    counters = result.harness_metrics.get("counters", {})
    for counter, minimum in expected_counters.items():
        assert counters.get(counter, 0) >= minimum, (name, counter, counters)
    assert not result.degraded, name
    assert result.completed == EXPERIMENTS, name
    assert result.failures == {}, name
    assert _freeze(result) == golden, (
        f"chaos schedule {spec!r} did not recover to the undisturbed "
        "serial campaign"
    )
    return counters


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_recovered_campaign_reproduces_golden_fixture(
    tmp_path, payloads, golden, name
):
    _assert_recovers(tmp_path, payloads, golden, name)


@pytest.mark.parametrize("name", BATCHED_SCHEDULES)
def test_batched_recovery_reproduces_golden_fixture(
    tmp_path, payloads, golden, name
):
    counters = _assert_recovers(
        tmp_path, payloads, golden, name,
        batch_size=16, batch_runner=_e5_batch_runner,
    )
    assert counters.get("harness.batch_chunks", 0) > 0, counters
    assert "harness.batch_fallbacks" not in counters, counters
