"""Benchmark — weakly-hard (m,k) campaign path (PR 8 acceptance gate).

Run:  pytest benchmarks/bench_weakly_hard.py -q -s [--json PATH]

Two promises of the weakly-hard scenario family are asserted:

* **zero-budget overhead**: the (m,k) = (0,1) trial path
  (:func:`repro.experiments.weakly_hard._mk_trial`) is the classic
  hard-deadline campaign — no window object is even constructed — so it
  must produce bit-identical records at no material wall-clock cost
  versus the plain E5 scalar loop;
* **lockstep miss windows**: a real miss budget ((1,4), prefilled
  windows) routed through :class:`~repro.faults.batch_campaign.BatchTemExecutor`
  must keep a healthy speedup over the scalar weakly-hard loop — the
  per-lane ``accept_miss`` consultations and window recording must not
  eat the vectorization win — with bit-identical records *and* window
  end-states.

Both sides of each ratio run back-to-back on the same machine, best of
``BEST_OF`` runs, so absolute machine speed cancels out of the gates.
"""

import common
from repro.experiments.coverage_table import e5_fault_payloads, make_brake_workload
from repro.experiments.weakly_hard import _mk_trial, _mk_window, mk_fault_payloads
from repro.faults.batch_campaign import BatchTemExecutor
from repro.faults.campaign import TemInjectionHarness

EXPERIMENTS = 2_000
SEED = 2005
MAX_COPIES = 3
BATCH = 512
BEST_OF = 3
#: Zero-budget trials may not cost materially more than the classic loop
#: (generous: CI noise, not algorithmic slack).
MAX_ZERO_BUDGET_OVERHEAD = 1.30
#: Lockstep with live miss windows must keep most of the batch-engine win.
REQUIRED_MK_SPEEDUP = 2.0


def _classic_loop(harness, faults):
    return [harness.run_experiment(fault) for fault in faults]


def _mk_loop(payloads):
    return [_mk_trial(payload, seed=0) for payload in payloads]


def test_benchmark_mk_zero_budget_overhead():
    """(0,1) weakly-hard trials are the classic hard path, for free."""
    faults = [f for _, f in e5_fault_payloads(EXPERIMENTS, seed=SEED)]
    harness = TemInjectionHarness(make_brake_workload())
    payloads = mk_fault_payloads(
        EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES,
        max_misses=0, window_jobs=1,
    )

    classic = _classic_loop(harness, faults)  # warm + reference records
    zero_budget = _mk_loop(payloads)
    assert [r.to_json() for r in zero_budget] == [r.to_json() for r in classic]

    classic_s = common.best_of(BEST_OF, lambda: _classic_loop(harness, faults))
    mk_s = common.best_of(BEST_OF, lambda: _mk_loop(payloads))
    overhead = mk_s / max(classic_s, 1e-9)
    common.report(
        "campaign.mk_zero_budget_overhead",
        wall_s=mk_s,
        trials=EXPERIMENTS,
        classic_s=round(classic_s, 6),
        overhead=round(overhead, 3),
    )
    assert overhead <= MAX_ZERO_BUDGET_OVERHEAD, (
        f"zero-budget weakly-hard trials cost {overhead:.2f}x the classic "
        f"loop (gate: {MAX_ZERO_BUDGET_OVERHEAD}x)"
    )


def test_benchmark_mk_batch_lockstep():
    """Live (1,4) miss windows through the lockstep engine vs scalar."""
    payloads = mk_fault_payloads(
        EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES,
        max_misses=1, window_jobs=4, prefill_miss_rate=0.35,
    )
    harness = TemInjectionHarness(make_brake_workload())
    faults = [p[4] for p in payloads]

    def scalar_run():
        windows = [_mk_window(p) for p in payloads]
        records = [
            harness.run_experiment(fault, miss_window=window)
            for fault, window in zip(faults, windows)
        ]
        return records, windows

    def batch_run():
        windows = [_mk_window(p) for p in payloads]
        replies = BatchTemExecutor(harness, batch=BATCH).run_experiments(
            faults, miss_windows=windows
        )
        return [record for record, _ in replies], windows

    scalar_records, scalar_windows = scalar_run()  # warm + reference
    batch_records, batch_windows = batch_run()
    assert [r.to_json() for r in batch_records] == [
        r.to_json() for r in scalar_records
    ]
    assert [tuple(w._history) for w in batch_windows] == [
        tuple(w._history) for w in scalar_windows
    ]

    scalar_s = common.best_of(BEST_OF, scalar_run)
    batch_s = common.best_of(BEST_OF, batch_run)
    speedup = scalar_s / max(batch_s, 1e-9)
    common.report(
        "campaign.mk_batch_lockstep",
        wall_s=batch_s,
        trials=EXPERIMENTS,
        scalar_s=round(scalar_s, 6),
        speedup=round(speedup, 2),
        batch=BATCH,
    )
    assert speedup >= REQUIRED_MK_SPEEDUP, (
        f"lockstep engine with live miss windows must be >= "
        f"{REQUIRED_MK_SPEEDUP}x the scalar weakly-hard loop, measured "
        f"{speedup:.2f}x"
    )
