"""Deterministic chaos injection: spec grammar and journal corruption.

Runner-level chaos (``die``/``stall``/``corrupt``) in action is covered by
``test_shards.py`` and the golden-fixture gate in
``test_chaos_equivalence.py``.
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    CampaignJournal,
    CampaignSupervisor,
    ChaosPolicy,
    JournalHeader,
    SupervisorConfig,
    TrialEntry,
)


class TestChaosSpec:
    def test_spec_round_trips_through_describe(self):
        spec = "die:40,stall:80,corrupt:0:tear"
        policy = ChaosPolicy.from_spec(spec, seed=9)
        assert policy.describe() == spec
        assert ChaosPolicy.from_spec(policy.describe(), seed=9) == policy

    def test_empty_spec_has_no_events(self):
        policy = ChaosPolicy.from_spec("")
        assert not policy.any_events
        assert policy.describe() == ""

    @pytest.mark.parametrize("bad", [
        "kill", "kill:x", "delay:3", "delay:3:fast", "die:1:2",
        "corrupt:0", "corrupt:0:shred", "explode:5",
    ])
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ChaosPolicy.from_spec(bad)

    @pytest.mark.parametrize("spec", ["kill:3", "kill-idle:7", "delay:4:0.5"])
    def test_pool_directives_rejected(self, spec):
        # The worker pool they targeted is gone; the error names the
        # runner-level grammar instead of silently ignoring the event.
        with pytest.raises(ConfigurationError, match="die:T, stall:T"):
            ChaosPolicy.from_spec(spec)

    def test_event_queries(self):
        policy = ChaosPolicy.from_spec("die:40,stall:80,corrupt:1:garbage")
        assert policy.dies_after(40) and not policy.dies_after(41)
        assert policy.stalls_after(80) and not policy.stalls_after(40)
        assert policy.corruption_mode(1) == "garbage"
        assert policy.corruption_mode(0) is None


class TestCorruptJournal:
    HEADER = JournalHeader(campaign="c", master_seed=1, total_trials=8)

    def _journal(self, tmp_path, entries=4):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, self.HEADER) as journal:
            for i in range(entries):
                journal.append(TrialEntry(trial_id=i, status="ok", result={"v": i}))
        return path

    def test_tear_loses_exactly_the_final_entry(self, tmp_path):
        path = self._journal(tmp_path)
        policy = ChaosPolicy(seed=5, corrupt_shards={0: "tear"})
        assert policy.corrupt_journal(path, 0) == "tear"
        with CampaignJournal(path, self.HEADER) as journal:
            assert journal.completed_ids() == {0, 1, 2}
            assert journal.salvage is not None
            assert journal.salvage.quarantine_path.exists()

    def test_tear_never_touches_the_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, self.HEADER):
            pass  # header only — nothing beyond it may be torn
        policy = ChaosPolicy(corrupt_shards={0: "tear"})
        assert policy.corrupt_journal(path, 0) is None
        with CampaignJournal(path, self.HEADER) as journal:
            assert journal.salvage is None

    @pytest.mark.parametrize("mode", ["garbage", "schema"])
    def test_appended_damage_preserves_every_entry(self, tmp_path, mode):
        path = self._journal(tmp_path)
        policy = ChaosPolicy(seed=5, corrupt_shards={0: mode})
        assert policy.corrupt_journal(path, 0) == mode
        with CampaignJournal(path, self.HEADER) as journal:
            assert journal.completed_ids() == {0, 1, 2, 3}
            assert journal.salvage is not None
            assert journal.salvage.quarantined_bytes > 0

    def test_corruption_bytes_are_seed_deterministic(self, tmp_path):
        first = self._journal(tmp_path / "a", entries=4)
        second = self._journal(tmp_path / "b", entries=4)
        policy = ChaosPolicy(seed=11, corrupt_shards={0: "garbage"})
        policy.corrupt_journal(first, 0)
        policy.corrupt_journal(second, 0)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_file_is_a_noop(self, tmp_path):
        policy = ChaosPolicy(corrupt_shards={0: "tear"})
        assert policy.corrupt_journal(tmp_path / "absent.jsonl", 0) is None


def _int_trial(payload, seed):
    return payload * 1000 + seed % 97


def test_chaos_ignored_in_serial_mode(run_config):
    # Killing the only process would be the campaign failing, not
    # surviving: a serial campaign never consults the policy.
    payloads = list(range(12))
    serial = CampaignSupervisor(
        _int_trial, SupervisorConfig(master_seed=7)
    ).run(payloads)
    run_config(chaos="die:4,stall:1")
    result = CampaignSupervisor(
        _int_trial, SupervisorConfig(master_seed=7)
    ).run(payloads)
    assert result.failures == {}
    assert result.results == serial.results
