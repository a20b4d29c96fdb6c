"""fsync batching vs killed-writer durability.

The journal's contract: a SIGKILLed *process* never loses an
acknowledged (appended) trial, no matter how large ``fsync_interval`` is
— line flushes happen per append and batching only bounds what an
operating-system crash can lose.  The regression here runs a writer in a
child process, lets it append with an absurdly large fsync interval,
SIGKILLs it without warning and asserts every acknowledged entry
survived.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.harness import (
    CampaignJournal,
    CampaignSupervisor,
    DEFAULT_FSYNC_INTERVAL,
    JournalHeader,
    SupervisorConfig,
)

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

ENTRIES = 25


def _value_trial(payload, seed):
    return {"v": payload}

#: Child writer: appends ENTRIES entries with fsync batching effectively
#: disabled (interval far beyond the entry count), then SIGKILLs itself
#: — no close(), no final sync.
_WRITER_PROGRAM = """
import os, signal, sys
from repro.harness import CampaignJournal, JournalHeader, TrialEntry

journal = CampaignJournal(
    sys.argv[1],
    JournalHeader(campaign="durability", master_seed=9, total_trials=%(total)d),
    fsync_interval=1_000_000,
)
for i in range(%(total)d):
    journal.append(TrialEntry(trial_id=i, status="ok", result={"v": i}))
os.kill(os.getpid(), signal.SIGKILL)
""" % {"total": ENTRIES}


class TestKilledWriterDurability:
    def test_acknowledged_entries_survive_sigkill(self, tmp_path):
        path = tmp_path / "durable.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", _WRITER_PROGRAM, str(path)],
            env=env, timeout=60,
        )
        assert completed.returncode == -signal.SIGKILL

        header = JournalHeader(
            campaign="durability", master_seed=9, total_trials=ENTRIES
        )
        with CampaignJournal(path, header) as journal:
            assert journal.salvage is None  # kill between appends: clean file
            assert journal.completed_ids() == set(range(ENTRIES))
            assert all(
                journal.entries[i].result == {"v": i} for i in range(ENTRIES)
            )


class TestFsyncBatching:
    def test_fsync_every_interval_and_on_close(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        header = JournalHeader(campaign="b", master_seed=1, total_trials=20)
        with CampaignJournal(
            tmp_path / "b.jsonl", header, fsync_interval=8
        ) as journal:
            from repro.harness import TrialEntry
            for i in range(20):
                journal.append(TrialEntry(trial_id=i, status="ok", result={}))
        # 21 writes (header + 20 entries): syncs after writes 8 and 16,
        # plus exactly one on close.
        assert len(calls) == 3

    def test_interval_validation(self, tmp_path):
        header = JournalHeader(campaign="b", master_seed=1, total_trials=1)
        with pytest.raises(ConfigurationError):
            CampaignJournal(tmp_path / "b.jsonl", header, fsync_interval=0)

    def test_supervisor_default_is_batched(self, tmp_path, monkeypatch):
        """A supervisor journal syncs every DEFAULT_FSYNC_INTERVAL trials
        (and on close), not per trial."""
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        assert DEFAULT_FSYNC_INTERVAL > 1
        CampaignSupervisor(
            _value_trial,
            SupervisorConfig(journal_path=tmp_path / "s.jsonl"),
        ).run(list(range(DEFAULT_FSYNC_INTERVAL + 1)))
        assert len(calls) == 2  # one at the interval, one on close
