"""Harness-health view: fault-tolerance events of the campaign machinery.

The campaign harness now tolerates its own failures — dead or wedged shard
runners (lease takeovers), corrupted journal tails
(valid-prefix salvage), abandoned shards (graceful degradation).  Those
events are recorded as ``harness.*`` counters/gauges in the supervisor's
infrastructure metrics; this module projects the *noteworthy* ones into a
small report so a degraded or chaos-exercised campaign is visible at a
glance.

The projection is intentionally empty for a healthy, undisturbed run:
routine counters (trials dispatched, runners spawned, trials resumed)
never appear here, so report output stays byte-identical when nothing
fault-related happened.
"""

from __future__ import annotations

from typing import Optional

from .metrics import Snapshot

#: ``harness.*`` counters worth surfacing, with compact report labels.
#: Ordering is the report ordering.
_NOTEWORTHY_COUNTERS = (
    ("harness.lease_takeovers", "takeovers"),
    ("harness.shards_abandoned", "shards-abandoned"),
    ("harness.journal_salvages", "journal-salvages"),
    ("harness.journal_entries_salvaged", "entries-salvaged"),
    ("harness.journal_quarantined_bytes", "quarantined-bytes"),
    ("harness.chaos_journal_corruptions", "chaos-corruptions"),
)


def harness_health(snapshot: Optional[Snapshot]) -> "dict[str, int]":
    """Noteworthy fault-tolerance events in *snapshot*, report-ordered.

    Returns an empty dict for a healthy run — only non-zero noteworthy
    ``harness.*`` counters appear.
    """
    counters = (snapshot or {}).get("counters", {})
    health: "dict[str, int]" = {}
    for name, label in _NOTEWORTHY_COUNTERS:
        value = counters.get(name, 0)
        if value:
            health[label] = int(value)
    return health


def format_harness_health(snapshot: Optional[Snapshot]) -> str:
    """One-line digest of :func:`harness_health` (empty string = healthy).

    Example: ``takeovers=2, journal-salvages=1, quarantined-bytes=57``.
    """
    health = harness_health(snapshot)
    if not health:
        return ""
    return ", ".join(f"{label}={value}" for label, value in health.items())
