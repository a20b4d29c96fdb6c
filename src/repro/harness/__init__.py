"""Resilient campaign execution engine.

The supervisor that every large fault-injection campaign and Monte-Carlo
study runs on: per-trial wall-clock timeouts, bounded retry with
exponential backoff, a JSONL checkpoint journal with deterministic
per-trial seed derivation (interrupt/resume is bit-identical), optional
lockstep batching, and graceful partial results when a campaign is
stopped early or a shard is abandoned.

Process parallelism comes from the node-level fault-tolerance pieces the
paper's framework uses — applied to the harness itself:

* :mod:`repro.harness.shards` — the sharded campaign coordinator behind
  ``workers >= 1``: contiguous seed-range shards, one serial runner
  process per shard, heartbeat failure detection through an in-memory
  beat counter per shard, kill-and-respawn takeover, in-memory handoff
  of finished shards and a commutative merge;
* :mod:`repro.harness.chaos` — deterministic, seeded chaos injection
  (runner SIGKILLs, heartbeat stalls, journal-tail corruption) used to
  prove that recovery reproduces the undisturbed run bit-identically.

See :mod:`repro.harness.supervisor` for the core design notes.
"""

from .chaos import CORRUPTION_MODES, ChaosPolicy
from .journal import (
    DEFAULT_FSYNC_INTERVAL,
    JOURNAL_VERSION,
    CampaignJournal,
    JournalHeader,
    SalvageReport,
    TrialEntry,
)
from .seeds import derive_seed
from .shards import (
    ShardConfig,
    ShardSpec,
    plan_shards,
    run_sharded_campaign,
    shard_paths,
)
from .supervisor import (
    CampaignSupervisor,
    HarnessFailure,
    SupervisorConfig,
    SupervisorResult,
    TrialTimeoutError,
    run_experiment_campaign,
)

__all__ = [
    "CORRUPTION_MODES",
    "CampaignJournal",
    "CampaignSupervisor",
    "ChaosPolicy",
    "DEFAULT_FSYNC_INTERVAL",
    "HarnessFailure",
    "JOURNAL_VERSION",
    "JournalHeader",
    "SalvageReport",
    "ShardConfig",
    "ShardSpec",
    "SupervisorConfig",
    "SupervisorResult",
    "TrialEntry",
    "TrialTimeoutError",
    "derive_seed",
    "plan_shards",
    "run_experiment_campaign",
    "run_sharded_campaign",
    "shard_paths",
]
