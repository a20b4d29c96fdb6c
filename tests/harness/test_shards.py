"""Sharded crash-tolerant coordinator: planning, leases, takeover,
degradation and coordinator-kill resume.

The acceptance properties under test mirror the paper's node-level FT
claims, applied to the harness itself: a shard runner may be SIGKILLed or
wedge at any trial and the recovered campaign is bit-identical to the
undisturbed serial run; a shard that keeps dying degrades the campaign
gracefully instead of wrecking it; killing the *coordinator* (and every
runner with it) loses zero acknowledged trials.
"""

import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.faults.outcomes import CampaignStatistics, ExperimentRecord, OutcomeClass
from repro.harness import (
    CampaignSupervisor,
    ChaosPolicy,
    Lease,
    LeaseFile,
    ShardConfig,
    SupervisorConfig,
    plan_shards,
    run_sharded_campaign,
    shard_paths,
)
from repro.harness.leases import LEASE_ABANDONED, LEASE_DONE
from repro.obs.progress import ProgressReporter

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Fast coordinator knobs shared by the functional tests.
_FAST = dict(lease_ttl_s=1.0, heartbeat_s=0.05, poll_s=0.02)


def _record_trial(payload, seed):
    """Deterministic toy trial returning an ExperimentRecord (so the
    merged result supports statistics())."""
    outcome = (
        OutcomeClass.MASKED, OutcomeClass.NO_EFFECT, OutcomeClass.OMISSION,
    )[seed % 3]
    return ExperimentRecord(outcome, f"trial {payload} seed {seed}")


def _slow_trial(payload, seed):
    """The kill-and-resume trial: slow enough to kill mid-campaign.  Must
    match the inline copy in _COORDINATOR_PROGRAM exactly."""
    time.sleep(0.05)
    return payload * 10 + seed % 7


def _freezing_trial(payload, seed):
    """Payload 4 stops the whole runner process; the rest classify."""
    if payload == 4:
        os.kill(os.getpid(), signal.SIGSTOP)
    return _record_trial(payload, seed)


class TestPlanShards:
    def test_partition_is_contiguous_and_near_equal(self):
        specs = plan_shards(10, 3)
        assert [(s.start, s.stop) for s in specs] == [(0, 4), (4, 7), (7, 10)]
        assert sum(s.size for s in specs) == 10
        assert max(s.size for s in specs) - min(s.size for s in specs) <= 1

    def test_count_clamped_to_total(self):
        specs = plan_shards(2, 8)
        assert len(specs) == 2
        assert all(s.size == 1 for s in specs)

    def test_empty_campaign_gets_one_empty_shard(self):
        specs = plan_shards(0, 4)
        assert len(specs) == 1 and specs[0].size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            plan_shards(-1, 2)
        with pytest.raises(ConfigurationError):
            plan_shards(10, 0)

    def test_shard_paths_derive_from_journal(self, tmp_path):
        journal, lease = shard_paths(tmp_path / "e5.jsonl", 3)
        assert journal == tmp_path / "e5.shard3.jsonl"
        assert lease == tmp_path / "e5.shard3.lease"

    @pytest.mark.parametrize("bad", [
        dict(lease_ttl_s=0.0),
        dict(heartbeat_s=0.0),
        dict(lease_ttl_s=0.1, heartbeat_s=0.2),
        dict(poll_s=0.0),
        dict(max_takeovers=-1),
    ])
    def test_shard_config_validation(self, bad):
        with pytest.raises(ConfigurationError):
            ShardConfig(**bad)


class TestLeases:
    def test_round_trip_and_expiry(self, tmp_path):
        lease_file = LeaseFile(tmp_path / "s.lease")
        lease = Lease(shard_id=1, owner="pid42", token=3, heartbeat=1000.0)
        lease_file.write(lease)
        assert lease_file.read() == lease
        assert lease.expired(ttl_s=5.0, now=1006.0)
        assert not lease.expired(ttl_s=5.0, now=1004.0)

    @pytest.mark.parametrize("state", [LEASE_DONE, LEASE_ABANDONED])
    def test_only_running_leases_expire(self, state):
        lease = Lease(shard_id=0, owner="x", token=1, heartbeat=0.0, state=state)
        assert not lease.expired(ttl_s=0.001, now=1e9)

    def test_missing_and_garbage_files_read_as_no_lease(self, tmp_path):
        lease_file = LeaseFile(tmp_path / "s.lease")
        assert lease_file.read() is None
        lease_file.path.write_bytes(b"\xff\xfe not a lease")
        assert lease_file.read() is None
        lease_file.path.write_text('{"shard_id": "nope"}')
        assert lease_file.read() is None

    def test_fencing(self, tmp_path):
        lease_file = LeaseFile(tmp_path / "s.lease")
        assert not lease_file.fenced_out(0)  # no lease: nobody fenced
        lease_file.write(Lease(shard_id=0, owner="new", token=5, heartbeat=0.0))
        assert lease_file.fenced_out(4)
        assert not lease_file.fenced_out(5)

    def test_heartbeat_refreshes_timestamp_and_state(self, tmp_path):
        lease_file = LeaseFile(tmp_path / "s.lease")
        stale = Lease(shard_id=0, owner="x", token=1, heartbeat=0.0)
        refreshed = lease_file.heartbeat(stale, state=LEASE_DONE)
        assert refreshed.heartbeat > 0.0
        assert refreshed.state == LEASE_DONE
        assert lease_file.read() == refreshed


class TestShardedCampaign:
    def _run(self, tmp_path, payloads, chaos=None, shard_config=None,
             master_seed=17, workers=3):
        return run_sharded_campaign(
            _record_trial,
            payloads,
            SupervisorConfig(
                workers=workers, master_seed=master_seed, campaign="toy",
                journal_path=tmp_path / "toy.jsonl", chaos=chaos,
            ),
            shard_config or ShardConfig(**_FAST),
        )

    def test_journal_less_campaign_leaves_no_files(self, tmp_path, monkeypatch):
        """Without journal_path, shard journals and leases live in a
        temporary directory that the merge removes."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        payloads = list(range(12))
        result = CampaignSupervisor(
            _record_trial, SupervisorConfig(master_seed=17, workers=2)
        ).run(payloads)
        serial = CampaignSupervisor(
            _record_trial, SupervisorConfig(master_seed=17)
        ).run(payloads)
        assert result.results == serial.results
        assert list(tmp_path.iterdir()) == []

    def test_monitor_waits_on_runner_sentinels(self, tmp_path, monkeypatch):
        """The coordinator blocks on process sentinels (woken by a runner's
        exit, or by poll_s for lease checks), never in a fixed sleep."""

        def no_sleep(seconds):
            raise AssertionError("coordinator slept instead of waiting")

        monkeypatch.setattr("repro.harness.shards.time.sleep", no_sleep)
        result = self._run(tmp_path, list(range(9)))
        assert not result.degraded
        assert result.completed == 9

    def test_progress_tallies_every_merged_trial(self, tmp_path):
        reporter = ProgressReporter("toy", stream=io.StringIO(), enabled=True)
        result = run_sharded_campaign(
            _record_trial, list(range(10)),
            SupervisorConfig(
                workers=2, master_seed=17, journal_path=tmp_path / "p.jsonl",
                progress=reporter,
            ),
            ShardConfig(**_FAST),
        )
        assert reporter.done == reporter.total == 10
        counts = result.statistics().outcome_counts()
        assert reporter.tallies == {k: v for k, v in counts.items() if v}

    def test_sharded_matches_serial(self, tmp_path):
        payloads = list(range(30))
        sharded = self._run(tmp_path, payloads)
        serial = CampaignSupervisor(
            _record_trial, SupervisorConfig(master_seed=17, campaign="toy")
        ).run(payloads)
        assert not sharded.degraded
        assert sharded.completed == len(payloads)
        assert [r.to_json() for r in sharded.statistics().records] == [
            r.to_json() for r in serial.statistics().records
        ]
        for shard_id in range(3):
            journal, lease = shard_paths(tmp_path / "toy.jsonl", shard_id)
            assert journal.exists()
            assert LeaseFile(lease).read().state == LEASE_DONE

    @pytest.mark.parametrize("spec", ["die:7", "die:7,corrupt:0:tear"])
    def test_runner_death_recovers_bit_identically(self, tmp_path, spec):
        payloads = list(range(30))
        sharded = self._run(
            tmp_path, payloads, chaos=ChaosPolicy.from_spec(spec, seed=3)
        )
        serial = CampaignSupervisor(
            _record_trial, SupervisorConfig(master_seed=17, campaign="toy")
        ).run(payloads)
        assert not sharded.degraded
        assert [r.to_json() for r in sharded.statistics().records] == [
            r.to_json() for r in serial.statistics().records
        ]
        counters = sharded.harness_metrics.get("counters", {})
        assert counters.get("harness.lease_takeovers", 0) >= 1
        if "corrupt" in spec:
            assert counters.get("harness.journal_salvages", 0) >= 1

    def test_trial_freezing_its_runner_is_charged_as_timeout(self, tmp_path):
        """A trial that freezes its runner (SIGSTOP: heartbeat thread
        included) expires the lease of each replacement in turn; after
        MAX_RETRIES + 1 of them it is journaled as HARNESS_TIMEOUT and the
        rest of the shard completes."""
        result = run_sharded_campaign(
            _freezing_trial,
            list(range(6)),
            SupervisorConfig(
                workers=2, master_seed=17, journal_path=tmp_path / "f.jsonl",
            ),
            ShardConfig(**_FAST),
        )
        assert not result.degraded
        assert sorted(result.results) == [0, 1, 2, 3, 5]
        assert result.failures[4].kind is OutcomeClass.HARNESS_TIMEOUT
        assert result.failures[4].attempts == 3
        counters = result.harness_metrics["counters"]
        assert counters["harness.lease_takeovers"] == 3
        assert counters["harness.harness_timeout"] == 1

    def test_undisturbed_shards_merge_from_their_handoffs(self, monkeypatch):
        """Finished runners hand their results to the coordinator in
        memory: an undisturbed ``--jobs 2`` campaign never reads a shard
        journal back, and merges to the serial result and metrics."""

        def no_journal_reads(config, shard):
            raise AssertionError("coordinator read shard journal back")

        monkeypatch.setattr(
            "repro.harness.shards._open_shard_journal", no_journal_reads
        )
        payloads = list(range(30))
        sharded = CampaignSupervisor(
            _record_trial, SupervisorConfig(master_seed=17, workers=2)
        ).run(payloads)
        serial = CampaignSupervisor(
            _record_trial, SupervisorConfig(master_seed=17)
        ).run(payloads)
        assert not sharded.degraded
        assert sharded.results == serial.results
        assert sharded.metrics_snapshot() == serial.metrics_snapshot()
        counters = sharded.harness_metrics["counters"]
        assert counters["harness.shard_handoffs"] == 2
        assert "harness.shard_journal_merges" not in counters
        # The runners' own counters arrive with their handoffs.
        assert counters["harness.trials_dispatched"] == len(payloads)

    def test_handoff_larger_than_the_pipe_buffer(self, tmp_path):
        """A runner blocks in send until the coordinator reads; results
        well past the pipe buffer still arrive whole."""
        payloads = [f"{i:04d}" + "x" * 400 for i in range(600)]
        sharded = self._run(tmp_path, payloads, workers=2)
        serial = CampaignSupervisor(
            _record_trial, SupervisorConfig(master_seed=17, campaign="toy")
        ).run(payloads)
        assert sharded.results == serial.results
        assert sharded.harness_metrics["counters"]["harness.shard_handoffs"] == 2

    def test_unpicklable_results_merge_from_the_journals(self, tmp_path):
        """A result that JSON-encodes into the journal but that pickle
        refuses (an instance of a class local to this function) is not
        handed off: the DONE shards are merged from their journals."""

        class LocalDict(dict):
            pass

        def unpicklable_trial(payload, seed):
            return LocalDict(value=payload * 10 + seed % 7)

        payloads = list(range(12))
        config = dict(master_seed=17, campaign="toy")
        sharded = run_sharded_campaign(
            unpicklable_trial, payloads,
            SupervisorConfig(
                workers=2, journal_path=tmp_path / "u.jsonl", **config
            ),
            ShardConfig(**_FAST),
        )
        serial = CampaignSupervisor(
            unpicklable_trial, SupervisorConfig(**config)
        ).run(payloads)
        assert not sharded.degraded
        assert sharded.results == serial.results
        counters = sharded.harness_metrics["counters"]
        assert counters["harness.shard_journal_merges"] == 2
        assert "harness.shard_handoffs" not in counters

    def test_abandoned_shard_degrades_gracefully(self, tmp_path):
        payloads = list(range(20))
        sharded = self._run(
            tmp_path, payloads,
            chaos=ChaosPolicy.from_spec("die:2"),
            shard_config=ShardConfig(max_takeovers=0, **_FAST),
            workers=2,
        )
        assert sharded.degraded
        assert 0 < sharded.completed < len(payloads)
        counters = sharded.harness_metrics.get("counters", {})
        assert counters.get("harness.shards_abandoned", 0) == 1
        # The abandoned shard never hands off: its partial results (shard
        # 0 died right after journaling trial 2) come from its journal,
        # the other shard's from its handoff.
        assert sorted(sharded.results) == [0, 1, 2, *range(10, 20)]
        assert counters["harness.shard_journal_merges"] == 1
        assert counters["harness.shard_handoffs"] == 1
        journal, lease = shard_paths(tmp_path / "toy.jsonl", 0)
        assert LeaseFile(lease).read().state == LEASE_ABANDONED

        stats = sharded.statistics()
        assert stats.degraded
        assert stats.missing == len(payloads) - sharded.completed
        assert "DEGRADED" in stats.summary()
        # The widened interval must contain the plain Wilson interval a
        # complete campaign over the same records would report.
        plain = CampaignStatistics()
        for record in stats.records:
            plain.add(record)
        lo_wide, hi_wide = stats.coverage_interval()
        lo_plain, hi_plain = plain.coverage_interval()
        assert lo_wide <= lo_plain
        assert hi_wide >= hi_plain


#: Coordinator child for the kill-and-resume test.  The trial body must
#: match _slow_trial above — the parent's resume and serial runs use it.
_COORDINATOR_PROGRAM = """
import sys, time
from repro.harness import ShardConfig, SupervisorConfig, run_sharded_campaign

def _slow_trial(payload, seed):
    time.sleep(0.05)
    return payload * 10 + seed % 7

run_sharded_campaign(
    _slow_trial,
    list(range(40)),
    SupervisorConfig(
        workers=2, master_seed=11, campaign="kr", journal_path=sys.argv[1]
    ),
    ShardConfig(lease_ttl_s=1.0, heartbeat_s=0.05, poll_s=0.02),
)
"""


def _trial_entries(journal_path):
    if not journal_path.exists():
        return {}
    entries = {}
    for line in journal_path.read_text().splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        if data.get("kind") == "trial":
            entries[data["trial_id"]] = data["result"]
    return entries


class TestCoordinatorKillAndResume:
    def test_no_acknowledged_trial_is_lost(self, tmp_path):
        """SIGKILL the whole sharded campaign — coordinator and runners —
        mid-run; resume; every pre-kill journal entry survives verbatim
        and the final result equals the undisturbed serial run."""
        journal = tmp_path / "kr.jsonl"
        shard_journals = [shard_paths(journal, k)[0] for k in range(2)]
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _COORDINATOR_PROGRAM, str(journal)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # one killpg nukes coordinator + runners
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                done = sum(len(_trial_entries(p)) for p in shard_journals)
                if done >= 6:
                    break
                if child.poll() is not None:
                    pytest.fail("coordinator exited before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("coordinator never made journal progress")
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                os.killpg(os.getpgid(child.pid), signal.SIGKILL)
                child.wait(timeout=30)

        acknowledged = [_trial_entries(p) for p in shard_journals]
        total_before = sum(len(a) for a in acknowledged)
        assert 0 < total_before < 40, (
            "campaign must die mid-run for this test to mean anything"
        )

        resumed = run_sharded_campaign(
            _slow_trial,
            list(range(40)),
            SupervisorConfig(
                workers=2, master_seed=11, campaign="kr", journal_path=journal
            ),
            ShardConfig(**_FAST),
        )
        assert not resumed.degraded
        assert resumed.completed == 40

        # Zero acknowledged trials lost: every pre-kill entry is still in
        # its shard journal, byte-for-byte.
        for shard_id, before in enumerate(acknowledged):
            after = _trial_entries(shard_journals[shard_id])
            for trial_id, result in before.items():
                assert after[trial_id] == result

        serial = CampaignSupervisor(
            _slow_trial, SupervisorConfig(master_seed=11, campaign="kr")
        ).run(list(range(40)))
        assert resumed.results == serial.results
