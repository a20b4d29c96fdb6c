"""Benchmark — multicore DES kernel paths (PR 9 acceptance gate).

Run:  pytest benchmarks/bench_multicore.py -q -s [--json PATH]

Two promises of the M-core kernel refactor are asserted:

* **bounded spatial overhead**: a spatial-TEM trial runs two concurrent
  copies (plus comparison, plus the occasional recovery copy), so its
  DES cost must stay a small constant factor over the temporal trial on
  the same workload — the per-core dispatch machinery must not turn two
  copies into an event-storm;
* **protocol microcosts**: the :class:`~repro.kernel.resources.
  ResourceManager` bookkeeping behind MSRP spinning and the lock-free
  retry path is pure counter/queue work; an acquire/release (or
  begin/commit) cycle must stay cheap and the two protocols must stay in
  the same cost class, so protocol choice in a campaign is a modelling
  decision, not a simulator-performance one.

Both sides of each ratio run back-to-back on the same machine, best of
``BEST_OF`` runs, so absolute machine speed cancels out of the gates.
"""

import common
from repro.experiments.multicore_tem import multicore_trials, run_multicore_trial
from repro.kernel.resources import ResourceManager, ResourceProtocol
from repro.kernel.task import TemMode

TRIALS = 150
SEED = 2006
BEST_OF = 3
#: A spatial trial executes ~2-3x the segments of a temporal one; the
#: dispatch/compare machinery may not inflate that into more (generous:
#: CI noise, not algorithmic slack).
MAX_SPATIAL_OVERHEAD = 4.0
#: Lock vs lock-free bookkeeping must stay within one cost class.
MAX_PROTOCOL_RATIO = 4.0
CYCLES = 200_000


def _trial_result(outcome, scheduler):
    """Everything a trial leaves behind: outcome, events executed and the
    resource and job statistics (dataclasses, compared field by field)."""
    return outcome, scheduler.sim.events_executed, scheduler.resources.stats, scheduler.stats


def _campaign(tem_mode, protocol):
    trials = multicore_trials(TRIALS, seed=SEED)
    return [
        _trial_result(*run_multicore_trial(trial, tem_mode, protocol, seed=SEED + i))
        for i, trial in enumerate(trials)
    ]


def test_benchmark_spatial_vs_temporal_trials():
    """Spatial-redundancy trials stay a bounded factor over temporal."""
    temporal = _campaign(TemMode.TEMPORAL, ResourceProtocol.LOCK)  # warm
    spatial = _campaign(TemMode.SPATIAL, ResourceProtocol.LOCK)
    # Determinism sanity: every trial's outcome, event count and
    # statistics are a pure function of (trials, mode, protocol) — a
    # re-run must reproduce them exactly.
    assert _campaign(TemMode.SPATIAL, ResourceProtocol.LOCK) == spatial
    assert len(temporal) == len(spatial) == TRIALS

    temporal_s = common.best_of(
        BEST_OF, lambda: _campaign(TemMode.TEMPORAL, ResourceProtocol.LOCK)
    )
    spatial_s = common.best_of(
        BEST_OF, lambda: _campaign(TemMode.SPATIAL, ResourceProtocol.LOCK)
    )
    overhead = spatial_s / max(temporal_s, 1e-9)
    common.report(
        "multicore.spatial_trial_overhead",
        wall_s=spatial_s,
        trials=TRIALS,
        temporal_s=round(temporal_s, 6),
        overhead=round(overhead, 3),
    )
    assert overhead <= MAX_SPATIAL_OVERHEAD, (
        f"spatial trials cost {overhead:.2f}x temporal ones "
        f"(gate: {MAX_SPATIAL_OVERHEAD}x)"
    )


def _lock_cycles(count):
    manager = ResourceManager(ResourceProtocol.LOCK)
    for _ in range(count):
        manager.lock_acquire("state", "job", priority=0)
        manager.lock_release("state", "job")
    return manager


def _lock_free_cycles(count):
    manager = ResourceManager(ResourceProtocol.LOCK_FREE)
    for _ in range(count):
        manager.free_commit("state", manager.free_begin("state"))
    return manager


def test_benchmark_resource_protocol_cycles():
    """MSRP vs lock-free bookkeeping cycles stay in one cost class."""
    assert _lock_cycles(CYCLES).stats.acquisitions == CYCLES  # warm + sanity
    assert _lock_free_cycles(CYCLES).stats.retries == 0

    lock_s = common.best_of(BEST_OF, lambda: _lock_cycles(CYCLES))
    free_s = common.best_of(BEST_OF, lambda: _lock_free_cycles(CYCLES))
    ratio = max(lock_s, free_s) / max(min(lock_s, free_s), 1e-9)
    common.report(
        "multicore.resource_protocol_cycles",
        wall_s=lock_s + free_s,
        trials=2 * CYCLES,
        lock_s=round(lock_s, 6),
        lock_free_s=round(free_s, 6),
        ratio=round(ratio, 3),
    )
    assert ratio <= MAX_PROTOCOL_RATIO, (
        f"lock vs lock-free bookkeeping diverged to {ratio:.2f}x "
        f"(gate: {MAX_PROTOCOL_RATIO}x)"
    )
