"""Property-based tests of corrupt-journal valid-prefix salvage.

Whatever damages a journal's tail — a random truncation point, arbitrary
garbage bytes (including invalid UTF-8), mid-line byte flips, or
well-formed JSON that is not a journal record — recovery must:

* preserve every entry of the valid prefix, byte-for-byte;
* quarantine the damaged tail so ``journal bytes + quarantine bytes``
  reconstruct the damaged file exactly (nothing silently destroyed);
* leave a well-formed journal behind (a second open sees no salvage);
* still refuse a journal whose *header* is damaged — that is a foreign
  or unrecoverable file, not a torn append;
* lose whole commits only: a journal of random 1..k-trial commits keeps
  exactly the trials of its intact commits, never part of a chunk, and
  each commit's metrics snapshot stays on its first trial.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.harness import CampaignJournal, ChaosPolicy, JournalHeader, TrialEntry

HEADER = JournalHeader(campaign="prop", master_seed=5, total_trials=64)


def _clean_journal(directory, entries):
    path = Path(directory) / "j.jsonl"
    with CampaignJournal(path, HEADER) as journal:
        for i in range(entries):
            journal.append(TrialEntry(trial_id=i, status="ok", result={"v": i}))
    return path


def _line_boundaries(raw):
    """Byte offsets one past each newline (complete-line ends)."""
    ends = []
    offset = 0
    while True:
        newline = raw.find(b"\n", offset)
        if newline < 0:
            return ends
        ends.append(newline + 1)
        offset = newline + 1


def _reopen(path):
    journal = CampaignJournal(path, HEADER)
    journal.close()
    return journal


class TestRandomTruncation:
    @given(
        entries=st.integers(min_value=1, max_value=10),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncation_keeps_the_valid_prefix(self, entries, cut_fraction):
        with tempfile.TemporaryDirectory() as directory:
            path = _clean_journal(directory, entries)
            raw = path.read_bytes()
            header_end = _line_boundaries(raw)[0]
            # Cut somewhere strictly inside the entry region: at least the
            # header survives, at least one byte is lost.
            cut = header_end + int(cut_fraction * (len(raw) - header_end))
            assume(cut < len(raw))
            path.write_bytes(raw[:cut])

            boundaries = [b for b in _line_boundaries(raw) if b <= cut]
            valid_end = max(boundaries)
            kept = len(boundaries) - 1  # minus the header line

            journal = _reopen(path)
            assert journal.completed_ids() == set(range(kept))
            assert all(
                journal.entries[i].result == {"v": i} for i in range(kept)
            )
            if valid_end < cut:
                assert journal.salvage is not None
                assert journal.salvage.entries_kept == kept
                quarantine = journal.salvage.quarantine_path
                assert quarantine.read_bytes() == raw[valid_end:cut]
                assert path.read_bytes() == raw[:valid_end]
            else:
                # The cut landed exactly on a line boundary: a shorter but
                # entirely valid journal, nothing to salvage.
                assert journal.salvage is None

            # Recovery is idempotent and the file is writable again:
            # re-append the lost entries and reopen clean.
            with CampaignJournal(path, HEADER) as repaired:
                for i in range(kept, entries):
                    repaired.append(
                        TrialEntry(trial_id=i, status="ok", result={"v": i})
                    )
            final = _reopen(path)
            assert final.salvage is None
            assert final.completed_ids() == set(range(entries))

    @given(cut_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=30, deadline=None)
    def test_header_damage_is_refused(self, cut_fraction):
        with tempfile.TemporaryDirectory() as directory:
            path = _clean_journal(directory, 3)
            raw = path.read_bytes()
            header_end = _line_boundaries(raw)[0]
            cut = 1 + int(cut_fraction * (header_end - 2))
            path.write_bytes(raw[:cut])
            with pytest.raises(ConfigurationError):
                CampaignJournal(path, HEADER)


class TestGarbageTails:
    @given(
        entries=st.integers(min_value=1, max_value=8),
        tail=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_appended_garbage_never_costs_an_entry(self, entries, tail):
        with tempfile.TemporaryDirectory() as directory:
            path = _clean_journal(directory, entries)
            clean = path.read_bytes()
            with path.open("ab") as handle:
                handle.write(tail)

            journal = _reopen(path)
            # Every acknowledged entry survives, content included.
            assert set(range(entries)) <= journal.completed_ids()
            assert all(
                journal.entries[i].result == {"v": i} for i in range(entries)
            )
            # Nothing is silently destroyed: journal + quarantine
            # reconstruct the damaged file byte-for-byte.
            if journal.salvage is not None:
                reconstructed = (
                    path.read_bytes()
                    + journal.salvage.quarantine_path.read_bytes()
                )
            else:
                reconstructed = path.read_bytes()
            assert reconstructed == clean + tail
            assert _reopen(path).salvage is None  # recovery is idempotent

    @given(
        entries=st.integers(min_value=2, max_value=8),
        position=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_mid_line_utf8_damage_loses_only_that_line(self, entries, position):
        with tempfile.TemporaryDirectory() as directory:
            path = _clean_journal(directory, entries)
            raw = bytearray(path.read_bytes())
            last_start = _line_boundaries(bytes(raw))[-2]
            index = last_start + int(position * (len(raw) - last_start))
            raw[index] = 0xFF  # never valid UTF-8, wherever it lands
            path.write_bytes(bytes(raw))

            journal = _reopen(path)
            assert journal.completed_ids() == set(range(entries - 1))
            assert journal.salvage is not None
            assert journal.salvage.quarantine_path.read_bytes() == bytes(
                raw[last_start:]
            )


class TestWrongSchemaLines:
    @given(
        payload=st.one_of(
            st.integers(),
            st.lists(st.integers(), max_size=3),
            st.dictionaries(
                st.text(max_size=6), st.integers(), max_size=3
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_valid_json_wrong_schema_is_quarantined(self, payload):
        # A dict that happens to carry a journal "kind" could be valid —
        # that is not the case under test here.
        assume(not (
            isinstance(payload, dict)
            and payload.get("kind") in ("trial", "header")
        ))
        with tempfile.TemporaryDirectory() as directory:
            path = _clean_journal(directory, 4)
            line = (json.dumps(payload) + "\n").encode("utf-8")
            with path.open("ab") as handle:
                handle.write(line)

            journal = _reopen(path)
            assert journal.completed_ids() == {0, 1, 2, 3}
            assert journal.salvage is not None
            assert journal.salvage.quarantined_lines == 1
            assert journal.salvage.quarantine_path.read_bytes() == line


def _chunked_journal(directory, sizes):
    """One commit of ``size`` trials per element of *sizes*, each with
    its own snapshot; returns the path and the commits' trial-id lists."""
    path = Path(directory) / "j.jsonl"
    commits = []
    with CampaignJournal(path, HEADER) as journal:
        for size in sizes:
            start = sum(len(ids) for ids in commits)
            ids = list(range(start, start + size))
            journal.append(
                *(TrialEntry(trial_id=i, status="ok", result={"v": i})
                  for i in ids),
                metrics=_commit_metrics(ids),
            )
            commits.append(ids)
    return path, commits


def _commit_metrics(ids):
    return {"counters": {"trials": len(ids)}, "gauges": {"first": ids[0]}}


class TestChunkCommits:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                       max_size=8),
        damage=st.sampled_from(["cut", "tear", "garbage", "schema"]),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        chaos_seed=st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(max_examples=80, deadline=None)
    def test_damage_loses_whole_commits_only(
        self, sizes, damage, cut_fraction, chaos_seed
    ):
        with tempfile.TemporaryDirectory() as directory:
            path, commits = _chunked_journal(directory, sizes)
            raw = path.read_bytes()
            ends = _line_boundaries(raw)  # header, then one line per commit
            if damage == "cut":
                cut = ends[0] + int(cut_fraction * (len(raw) - ends[0]))
                path.write_bytes(raw[:cut])
                intact = [ids for ids, end in zip(commits, ends[1:]) if end <= cut]
            else:
                applied = ChaosPolicy(seed=chaos_seed).corrupt_journal(
                    path, shard_id=0, mode=damage
                )
                assert applied == damage
                # A tear loses the final record, which may be a whole chunk.
                intact = commits[:-1] if damage == "tear" else commits

            journal = _reopen(path)
            expected = {i for ids in intact for i in ids}
            assert journal.completed_ids() == expected
            for ids in intact:
                assert journal.entries[ids[0]].metrics == _commit_metrics(ids)
                assert all(journal.entries[i].metrics is None for i in ids[1:])
                assert all(journal.entries[i].result == {"v": i} for i in ids)
            if journal.salvage is not None:
                assert journal.salvage.entries_kept == len(expected)
            assert _reopen(path).salvage is None
