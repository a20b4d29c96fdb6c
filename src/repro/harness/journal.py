"""JSONL checkpoint journal for resumable fault-injection campaigns.

One journal file per campaign.  The first line is a header identifying the
campaign (name, master seed, planned trial count); every subsequent line
is one *commit* of finished trials — each either a simulated outcome or
the harness failure that consumed it.  A scalar campaign commits one
trial at a time as a ``trial`` line carrying that trial's metrics
snapshot; a batched campaign commits a whole batch chunk as one
``chunk`` line whose trials share one merged metrics snapshot.  Every
commit is one write and one flush, so the journal survives a SIGKILL of
the campaign process: on resume, every line the OS accepted is still
there and only the in-flight commit (one trial, or one chunk) is re-run.
``fsync`` is batched (once ``fsync_interval`` trials are unsynced, plus
once on close), which additionally bounds what an *operating-system*
crash can lose without paying a disk sync per trial.

Because per-trial seeds are derived from ``(master_seed, trial_id)`` (see
:mod:`repro.harness.seeds`) and trials are independent, replaying the
journal and running only the missing trial ids reproduces the uninterrupted
campaign bit-for-bit.

Corruption tolerance (valid-prefix salvage)
-------------------------------------------
A journal written by a process that was killed mid-write — or whose file
was damaged afterwards — may end in a torn line, raw garbage bytes
(including invalid UTF-8), or well-formed JSON that is not a journal
record.  Loading such a file recovers the *valid prefix*: every intact
line up to the first damaged one is replayed, the damaged tail is moved
byte-for-byte into a quarantine file (``<journal>.corrupt``) for post
mortem, and the journal file itself is truncated back to the valid prefix
so subsequent appends produce a well-formed file again.  The trials whose
records were lost to the tail are simply re-run on resume; deterministic
per-trial seeding makes their re-executed results identical, so a salvaged
resume still reproduces the uninterrupted campaign bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from ..errors import ConfigurationError

_HEADER_KIND = "header"
_TRIAL_KIND = "trial"
_CHUNK_KIND = "chunk"

#: Journal schema version (bump on incompatible format changes).  Version
#: 2 added ``chunk`` records; a version-1 journal (``trial`` lines only)
#: still resumes, while a journal from a newer version is refused.
JOURNAL_VERSION = 2

#: Default number of committed trials between ``fsync`` calls (1 = sync
#: every commit).  Line *flushes* happen on every commit regardless —
#: batching only affects what an OS crash (not a process kill) can lose.
DEFAULT_FSYNC_INTERVAL = 32

#: The one compact encoder every journal line goes through.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class JournalHeader:
    """Identity of the campaign a journal belongs to.

    A resume refuses to mix journals across campaigns: replaying trials
    recorded under a different master seed or trial count would silently
    corrupt the statistics.
    """

    campaign: str
    master_seed: int
    total_trials: int
    version: int = JOURNAL_VERSION

    def to_json(self) -> "dict[str, object]":
        return {
            "kind": _HEADER_KIND,
            "campaign": self.campaign,
            "master_seed": self.master_seed,
            "total_trials": self.total_trials,
            "version": self.version,
        }

    @classmethod
    def from_json(cls, data: "dict[str, object]") -> "JournalHeader":
        return cls(
            campaign=str(data["campaign"]),
            master_seed=int(data["master_seed"]),
            total_trials=int(data["total_trials"]),
            version=int(data.get("version", JOURNAL_VERSION)),
        )


@dataclasses.dataclass(frozen=True)
class TrialEntry:
    """One finished trial: a ``trial`` line, or one element of a ``chunk``."""

    trial_id: int
    status: str  # "ok" | "harness_timeout" | "harness_crash"
    result: Optional[dict] = None  # simulated outcome (status == "ok")
    detail: str = ""  # harness-failure description otherwise
    attempts: int = 1
    #: Metrics snapshot (:mod:`repro.obs.metrics` schema) of the journal
    #: record this entry opens: the trial's own for a ``trial`` line, the
    #: chunk's merged one on a chunk's first entry, ``None`` on the rest.
    #: Journaling it makes resumed campaigns aggregate to the identical
    #: metrics totals as uninterrupted ones: replayed trials contribute
    #: their recorded snapshot instead of being re-run (and therefore are
    #: never double-counted).
    metrics: Optional[dict] = None
    #: Trial wall-clock in seconds (diagnostics only; never compared).
    duration_s: Optional[float] = None

    @property
    def is_harness_failure(self) -> bool:
        return self.status != "ok"

    def to_json(self, in_chunk: bool = False) -> "dict[str, object]":
        """This entry as a ``trial`` line or, with *in_chunk*, as one of a
        ``chunk`` record's ``trials`` (no ``kind``, no ``metrics``: the
        chunk carries one merged snapshot for all of them)."""
        data: "dict[str, object]" = {} if in_chunk else {"kind": _TRIAL_KIND}
        data["trial_id"] = self.trial_id
        data["status"] = self.status
        data["attempts"] = self.attempts
        if self.result is not None:
            data["result"] = self.result
        if self.detail:
            data["detail"] = self.detail
        if self.metrics is not None and not in_chunk:
            data["metrics"] = self.metrics
        if self.duration_s is not None:
            data["duration_s"] = round(self.duration_s, 6)
        return data

    @classmethod
    def from_json(cls, data: "dict[str, object]") -> "TrialEntry":
        trial_id = int(data["trial_id"])
        if trial_id < 0:
            raise ValueError(f"negative trial_id {trial_id}")
        return cls(
            trial_id=trial_id,
            status=str(data["status"]),
            result=data.get("result"),  # type: ignore[arg-type]
            detail=str(data.get("detail", "")),
            attempts=int(data.get("attempts", 1)),
            metrics=data.get("metrics"),  # type: ignore[arg-type]
            duration_s=(
                float(data["duration_s"])  # type: ignore[arg-type]
                if data.get("duration_s") is not None else None
            ),
        )


@dataclasses.dataclass(frozen=True)
class SalvageReport:
    """What valid-prefix recovery did to a damaged journal."""

    #: Intact trial entries replayed from the valid prefix (a chunk
    #: counts each of its trials).
    entries_kept: int
    #: Damaged-tail lines discarded (torn, garbage, or wrong-schema).
    quarantined_lines: int
    #: Damaged-tail size in bytes.
    quarantined_bytes: int
    #: Where the damaged tail was preserved byte-for-byte.
    quarantine_path: Path


def _parse_chunk(data: "dict[str, object]") -> "list[TrialEntry]":
    """A ``chunk`` record's trials, the merged snapshot on the first."""
    trials = data["trials"]
    metrics = data["metrics"]
    if not isinstance(trials, list) or not trials:
        raise ValueError("chunk without trials")
    if metrics is not None and not isinstance(metrics, dict):
        raise TypeError("chunk metrics must be a snapshot object")
    entries = [TrialEntry.from_json(trial) for trial in trials]
    entries[0] = dataclasses.replace(entries[0], metrics=metrics)
    return entries


def _parse_journal_line(raw_line: bytes) -> "Optional[tuple[str, object]]":
    """Decode one journal line; ``None`` marks it (and the rest) corrupt.

    A valid line is complete (the writer always appends ``\\n``), UTF-8,
    JSON, an object, and parses as a known record kind with the full
    schema.  Anything else — a torn final line, raw garbage, mid-line
    UTF-8 damage, or valid-JSON-wrong-schema lines — is corruption.  A
    ``chunk`` is one line, so damage anywhere in it loses the whole chunk.
    """
    try:
        text = raw_line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return None
    if not text:
        return ("blank", [])
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    kind = data.get("kind")
    try:
        if kind == _HEADER_KIND:
            return (_HEADER_KIND, JournalHeader.from_json(data))
        if kind == _TRIAL_KIND:
            return (_TRIAL_KIND, [TrialEntry.from_json(data)])
        if kind == _CHUNK_KIND:
            return (_CHUNK_KIND, _parse_chunk(data))
    except (KeyError, TypeError, ValueError):
        return None
    # Unknown record kind: not something this schema version wrote.
    return None


class CampaignJournal:
    """Append-only JSONL journal with crash- and corruption-tolerant loading.

    Opening an existing journal validates its header against the campaign
    being (re)run and loads every completed trial.  A damaged tail — a
    torn final line from a killed writer, garbage bytes, or wrong-schema
    lines — is salvaged: the valid prefix is kept, the tail is quarantined
    into ``<journal>.corrupt`` and the file truncated back to the prefix
    (see :attr:`salvage`).
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: JournalHeader,
        fsync_interval: int = DEFAULT_FSYNC_INTERVAL,
    ) -> None:
        if fsync_interval < 1:
            raise ConfigurationError("fsync_interval must be >= 1")
        self.path = Path(path)
        self.header = header
        self.entries: Dict[int, TrialEntry] = {}
        #: Valid-prefix recovery report (``None`` when the file was clean).
        self.salvage: Optional[SalvageReport] = None
        self._fsync_interval = int(fsync_interval)
        self._unsynced = 0
        existing = self._load_existing()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        if not existing:
            self._write_line(header.to_json(), 0)

    # ------------------------------------------------------------------
    def _load_existing(self) -> bool:
        """Replay the journal if present; return whether a header existed."""
        if not self.path.exists():
            return False
        raw = self.path.read_bytes()
        if not raw:
            return False
        stored: Optional[JournalHeader] = None
        valid_end = 0  # byte offset one past the last intact line
        corrupt_lines = 0
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                # No trailing newline: the writer was killed mid-line.
                corrupt_lines += 1
                break
            parsed = _parse_journal_line(raw[offset:newline])
            if parsed is None:
                # First damaged line: everything from here is the tail.
                corrupt_lines += raw.count(b"\n", offset) + (
                    0 if raw.endswith(b"\n") else 1
                )
                break
            kind, record = parsed
            if kind == _HEADER_KIND:
                stored = record  # type: ignore[assignment]
                if stored.version > JOURNAL_VERSION:
                    # Refused before salvage: records of a newer format
                    # would look like damage here and be cut off.
                    raise ConfigurationError(
                        f"journal {self.path} has format version "
                        f"{stored.version} but this code reads up to "
                        f"version {JOURNAL_VERSION}; refusing to resume "
                        "a journal written by newer code"
                    )
            else:
                for entry in record:  # type: ignore[union-attr]
                    self.entries[entry.trial_id] = entry
            offset = newline + 1
            valid_end = offset
        if stored is None:
            raise ConfigurationError(
                f"journal {self.path} has no valid header; refusing to resume "
                "from a corrupt or foreign file"
            )
        if (
            stored.campaign != self.header.campaign
            or stored.master_seed != self.header.master_seed
            or stored.total_trials != self.header.total_trials
        ):
            raise ConfigurationError(
                f"journal {self.path} belongs to campaign "
                f"{stored.campaign!r} (seed {stored.master_seed}, "
                f"{stored.total_trials} trials) but this run is "
                f"{self.header.campaign!r} (seed {self.header.master_seed}, "
                f"{self.header.total_trials} trials); resume must use the "
                "same campaign configuration"
            )
        if valid_end < len(raw):
            self.salvage = self._quarantine_tail(raw, valid_end, corrupt_lines)
        return True

    def _quarantine_tail(
        self, raw: bytes, valid_end: int, corrupt_lines: int
    ) -> SalvageReport:
        """Preserve the damaged tail and truncate the journal to the
        valid prefix, so appends land on a well-formed file again."""
        tail = raw[valid_end:]
        quarantine = self.path.with_name(self.path.name + ".corrupt")
        with quarantine.open("ab") as handle:
            handle.write(tail)
            handle.flush()
            os.fsync(handle.fileno())
        with self.path.open("r+b") as handle:
            handle.truncate(valid_end)
            handle.flush()
            os.fsync(handle.fileno())
        return SalvageReport(
            entries_kept=len(self.entries),
            quarantined_lines=corrupt_lines,
            quarantined_bytes=len(tail),
            quarantine_path=quarantine,
        )

    # ------------------------------------------------------------------
    def _write_line(self, data: "dict[str, object]", trials: int) -> None:
        self._handle.write(_ENCODER.encode(data) + "\n")
        # Flush to the OS so a SIGKILL of this process loses at most the
        # in-flight commit, never an already-recorded one.  fsync — which
        # protects against the *machine* dying, not the process — is
        # batched every fsync_interval trials and on close.
        self._handle.flush()
        self._unsynced += trials
        if self._unsynced >= self._fsync_interval:
            self.sync()

    def append(self, *entries: TrialEntry, metrics: Optional[dict] = None) -> None:
        """Commit finished trials as one journal record (one write, one
        flush; idempotent per trial id on resume).

        One entry is written as a ``trial`` line; *metrics*, when given,
        is its snapshot.  Several entries — a batch chunk, in trial order
        and without snapshots of their own — are written as one ``chunk``
        line carrying *metrics*, the merged snapshot of the chunk, which
        replay puts on the first entry.
        """
        first = entries[0]
        if metrics is not None:
            first = dataclasses.replace(first, metrics=metrics)
        self.entries[first.trial_id] = first
        if len(entries) == 1:
            self._write_line(first.to_json(), 1)
            return
        for entry in entries[1:]:
            self.entries[entry.trial_id] = entry
        self._write_line({
            "kind": _CHUNK_KIND,
            "trials": [entry.to_json(in_chunk=True) for entry in entries],
            "metrics": metrics,
        }, len(entries))

    def sync(self) -> None:
        """Flush and fsync everything appended so far."""
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except (OSError, ValueError):
            pass
        self._unsynced = 0

    def completed_ids(self) -> "set[int]":
        return set(self.entries)

    def close(self) -> None:
        self.sync()
        self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
