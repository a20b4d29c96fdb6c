"""Checkpoint journal and kill-and-resume guarantees.

The acceptance property under test: a campaign interrupted mid-run (the
process is SIGKILLed, not politely stopped) and resumed from its JSONL
journal yields :class:`CampaignStatistics` identical to the same campaign
run uninterrupted with the same master seed.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments.coverage_table import run_coverage_campaign
from repro.harness import (
    JOURNAL_VERSION,
    CampaignJournal,
    CampaignSupervisor,
    JournalHeader,
    SupervisorConfig,
    TrialEntry,
)
from repro.faults.outcomes import ExperimentRecord, OutcomeClass

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Inline child program: runs the E5 campaign with a journal, forever
#: (the parent SIGKILLs it once the journal shows progress).
_CHILD_PROGRAM = """
import sys
from repro.experiments.coverage_table import run_coverage_campaign
run_coverage_campaign(
    experiments=int(sys.argv[1]), seed=int(sys.argv[2]),
    journal_path=sys.argv[3],
)
"""


def _seeded_trial(payload, seed):
    """Deterministic toy trial whose record encodes its derived seed."""
    outcome = (
        OutcomeClass.MASKED, OutcomeClass.NO_EFFECT, OutcomeClass.OMISSION,
    )[seed % 3]
    return ExperimentRecord(outcome, f"trial {payload} seed {seed}")


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = JournalHeader(campaign="t", master_seed=1, total_trials=3)
        with CampaignJournal(path, header) as journal:
            journal.append(TrialEntry(trial_id=0, status="ok", result={"x": 1}))
            journal.append(TrialEntry(
                trial_id=2, status="harness_crash", detail="boom", attempts=3,
            ))
        with CampaignJournal(path, header) as journal:
            assert journal.completed_ids() == {0, 2}
            assert journal.entries[0].result == {"x": 1}
            assert journal.entries[2].is_harness_failure
            assert journal.entries[2].attempts == 3

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = JournalHeader(campaign="t", master_seed=1, total_trials=3)
        with CampaignJournal(path, header) as journal:
            journal.append(TrialEntry(trial_id=0, status="ok", result={}))
            journal.append(TrialEntry(trial_id=1, status="ok", result={}))
        # Simulate a SIGKILL mid-write: truncate inside the last line.
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with CampaignJournal(path, header) as journal:
            assert journal.completed_ids() == {0}

    def test_foreign_journal_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(
            path, JournalHeader(campaign="a", master_seed=1, total_trials=5)
        ):
            pass
        for bad in (
            JournalHeader(campaign="b", master_seed=1, total_trials=5),
            JournalHeader(campaign="a", master_seed=2, total_trials=5),
            JournalHeader(campaign="a", master_seed=1, total_trials=6),
        ):
            with pytest.raises(ConfigurationError):
                CampaignJournal(path, bad)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ConfigurationError):
            CampaignJournal(
                path, JournalHeader(campaign="a", master_seed=1, total_trials=1)
            )

    def test_newer_format_is_refused_untouched(self, tmp_path):
        """A journal from a newer format is refused before salvage: its
        records must not be mistaken for a damaged tail and cut off."""
        path = tmp_path / "j.jsonl"
        header = JournalHeader(campaign="a", master_seed=1, total_trials=4)
        newer = dict(header.to_json(), version=99)
        raw = (
            json.dumps(newer, separators=(",", ":")) + "\n"
            + json.dumps({"kind": "future", "trials": [0, 1]}) + "\n"
        ).encode("utf-8")
        path.write_bytes(raw)
        with pytest.raises(ConfigurationError) as excinfo:
            CampaignJournal(path, header)
        message = str(excinfo.value)
        assert "version 99" in message
        assert f"version {JOURNAL_VERSION}" in message
        assert path.read_bytes() == raw
        assert not path.with_name(path.name + ".corrupt").exists()

    def test_version_1_journal_resumes(self, tmp_path):
        """A version-1 journal (``trial`` lines only) still replays."""
        path = tmp_path / "j.jsonl"
        header = JournalHeader(campaign="a", master_seed=1, total_trials=2)
        lines = [
            dict(header.to_json(), version=1),
            TrialEntry(
                trial_id=0, status="ok", result={"x": 0},
                metrics={"counters": {"n": 1}},
            ).to_json(),
            TrialEntry(trial_id=1, status="harness_timeout", detail="t").to_json(),
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with CampaignJournal(path, header) as journal:
            assert journal.salvage is None
            assert journal.completed_ids() == {0, 1}
            assert journal.entries[0].metrics == {"counters": {"n": 1}}
            assert journal.entries[1].is_harness_failure


class TestResume:
    def test_interrupt_and_resume_is_bit_identical_toy(self, tmp_path):
        """Hook-interrupted run + resume == uninterrupted run, including
        the per-trial derived seeds embedded in the records."""
        payloads = list(range(40))
        journal = tmp_path / "toy.jsonl"
        config = dict(master_seed=99, campaign="toy")
        partial = CampaignSupervisor(
            _seeded_trial,
            SupervisorConfig(
                journal_path=journal,
                after_trial=lambda trial_id, harness_failures: trial_id >= 14,
                **config,
            ),
        ).run(payloads)
        assert partial.degraded and partial.completed < len(payloads)
        resumed = CampaignSupervisor(
            _seeded_trial, SupervisorConfig(journal_path=journal, **config),
        ).run(payloads)
        assert resumed.resumed_trials == partial.completed
        uninterrupted = CampaignSupervisor(
            _seeded_trial, SupervisorConfig(**config),
        ).run(payloads)
        assert [r.to_json() for r in resumed.statistics().records] == [
            r.to_json() for r in uninterrupted.statistics().records
        ]

    def test_kill_and_resume_e5_campaign(self, tmp_path):
        """The acceptance scenario: SIGKILL a real E5 campaign mid-run,
        resume from the journal, compare against an uninterrupted run."""
        experiments, seed = 1_500, 1234
        journal = tmp_path / "e5.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_PROGRAM,
             str(experiments), str(seed), str(journal)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until the campaign has demonstrably started writing
            # trials, then kill it without warning.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal.exists() and len(journal.read_bytes().splitlines()) > 30:
                    break
                if child.poll() is not None:
                    pytest.fail("campaign child exited before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("campaign child never made journal progress")
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        entries = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        completed_before_resume = sum(1 for e in entries if e["kind"] == "trial")
        assert 0 < completed_before_resume < experiments, (
            "child must die mid-campaign for this test to mean anything"
        )

        resumed = run_coverage_campaign(
            experiments=experiments, seed=seed, journal_path=journal,
        )
        uninterrupted = run_coverage_campaign(experiments=experiments, seed=seed)
        assert resumed.stats.outcome_counts() == uninterrupted.stats.outcome_counts()
        assert [r.to_json() for r in resumed.stats.records] == [
            r.to_json() for r in uninterrupted.stats.records
        ]
        assert resumed.estimates == uninterrupted.estimates
        assert resumed.stats.mechanism_counts() == uninterrupted.stats.mechanism_counts()
