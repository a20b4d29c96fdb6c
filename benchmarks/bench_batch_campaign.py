"""Benchmark — lockstep batch trial engine (PR 7 acceptance gate).

Run:  pytest benchmarks/bench_batch_campaign.py -q -s [--json PATH]

Three promises of the vectorized campaign engine are asserted:

* **lockstep throughput** (the PR 7 acceptance gate): stepping K E5
  experiments as lanes of one :class:`repro.cpu.batch.BatchMachine`
  (:class:`repro.faults.batch_campaign.BatchTemExecutor`) must deliver at
  least 3x the trials/s of the scalar interpreter — with bit-identical
  records and per-trial metrics stable views;
* **footprint-sized lane memory**: the engine-level run's ``tracemalloc``
  peak (reported as ``peak_traced_mb``) stays at most 32 MB at K=1024 —
  lane memory holds the words the task touches, not a dense
  ``(K, memory_words)`` array (128 MiB per chunk on its own);
* **end-to-end equivalence**: ``run_coverage_campaign(batch=K)`` routes
  the same chunks through the supervisor's ``batch_runner`` seam and must
  reproduce the scalar campaign bit-identically.  The end-to-end speedup
  is smaller than the engine's (both sides pay the same per-trial
  supervisor bookkeeping), so it is reported and only gated at "not
  slower".

Both sides of each ratio run back-to-back on the same machine, best of
``BEST_OF`` runs, so absolute machine speed cancels out of the gates.
"""

import os
import time
import tracemalloc

import common
from repro.experiments import run_coverage_campaign
from repro.experiments.coverage_table import e5_fault_payloads, make_brake_workload
from repro.faults.batch_campaign import BatchTemExecutor
from repro.faults.campaign import TemInjectionHarness
from repro.obs import metrics as obs_metrics

EXPERIMENTS = 4_000
SEED = 2005
BATCH = 1_024
#: PR 7 acceptance: lockstep engine >= 3x the scalar interpreter.
REQUIRED_SPEEDUP = 3.0
BEST_OF = 3
#: Engine-level tracemalloc peak bound (MB) at BATCH lanes.
MAX_PEAK_TRACED_MB = 32.0


def _scalar_replies(harness, faults):
    """The supervisor-shaped scalar trial loop: capture + run + snapshot."""
    replies = []
    for fault in faults:
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.capture(registry):
            record = harness.run_experiment(fault)
        snap = registry.snapshot()
        replies.append((record, snap if snap else None))
    return replies


def _stable(replies):
    return [
        (record.to_json(), obs_metrics.stable_view(snap))
        for record, snap in replies
    ]


def test_benchmark_batch_lockstep_vs_scalar():
    """K-lane lockstep execution vs the scalar interpreter, bit-identical."""
    faults = [fault for _, fault in e5_fault_payloads(EXPERIMENTS, seed=SEED)]
    harness = TemInjectionHarness(make_brake_workload())

    scalar = _scalar_replies(harness, faults)  # warm + reference replies
    batch = BatchTemExecutor(harness, batch=BATCH).run_experiments(faults)
    assert _stable(batch) == _stable(scalar)

    scalar_s = common.best_of(BEST_OF, lambda: _scalar_replies(harness, faults))
    batch_s = common.best_of(
        BEST_OF,
        lambda: BatchTemExecutor(harness, batch=BATCH).run_experiments(faults),
    )
    speedup = scalar_s / max(batch_s, 1e-9)

    # Separate untimed run: tracemalloc slows every allocation.
    tracemalloc.start()
    try:
        BatchTemExecutor(harness, batch=BATCH).run_experiments(faults)
        peak_traced_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    common.report(
        "campaign.batch_lockstep",
        wall_s=batch_s,
        trials=EXPERIMENTS,
        scalar_s=round(scalar_s, 6),
        speedup=round(speedup, 2),
        batch=BATCH,
        cores=os.cpu_count() or 1,
        peak_traced_mb=round(peak_traced_mb, 1),
    )
    assert peak_traced_mb <= MAX_PEAK_TRACED_MB, (
        f"batch engine traced peak {peak_traced_mb:.1f} MB exceeds "
        f"{MAX_PEAK_TRACED_MB:.0f} MB at batch={BATCH}"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"lockstep batch engine must be >= {REQUIRED_SPEEDUP}x the scalar "
        f"interpreter, measured {speedup:.2f}x "
        f"({EXPERIMENTS / scalar_s:.0f} -> {EXPERIMENTS / batch_s:.0f} trials/s)"
    )


def test_benchmark_batch_campaign_end_to_end():
    """``batch=K`` through the supervisor matches the scalar campaign."""
    campaign = lambda **kw: run_coverage_campaign(  # noqa: E731
        experiments=EXPERIMENTS, seed=SEED, **kw
    )
    scalar = campaign()
    batched = campaign(batch=BATCH)

    assert [r.to_json() for r in batched.stats.records] == [
        r.to_json() for r in scalar.stats.records
    ]
    assert batched.estimates == scalar.estimates
    assert batched.intervals == scalar.intervals
    assert batched.stats.harness_failures == 0

    started = time.perf_counter()
    campaign()
    scalar_s = time.perf_counter() - started
    started = time.perf_counter()
    campaign(batch=BATCH)
    batch_s = time.perf_counter() - started
    speedup = scalar_s / max(batch_s, 1e-9)
    common.report(
        "campaign.batch_end_to_end",
        wall_s=batch_s,
        trials=EXPERIMENTS,
        scalar_s=round(scalar_s, 6),
        speedup=round(speedup, 2),
        batch=BATCH,
    )
    assert speedup >= 1.0, (
        f"batched campaign must not be slower than scalar, measured {speedup:.2f}x"
    )
