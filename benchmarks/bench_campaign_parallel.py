"""Benchmark — campaign engine: shard runners vs serial, both sides of batch.

Run:  pytest benchmarks/bench_campaign_parallel.py --benchmark-only -s [--json PATH]

Runs the E5 coverage campaign serially and on ``WORKERS`` shard runners
(``workers=WORKERS``), once with the lockstep batch engine
(``batch=BATCH``, each runner batching its own slice) and once with
scalar trials, and records:

* **identical results across modes**: every run produces bit-identical
  records (trials are seeded and ordered by trial id, not by scheduling);
* **the parallel ratios** serial / parallel wall-clock, ``speedup`` for
  the batched pair and ``scalar_speedup`` for the scalar pair.  No ratio
  is gated: the coordinator still draws the fault list before forking
  and re-parses the shard journals at merge, serially (see ROADMAP).  On
  a machine with fewer than ``WORKERS`` cores the entry is marked
  ``status: "not_measured"`` — runners time-sharing one core measure
  scheduling, not parallelism.
"""

import os
import time

import common
from repro.experiments import run_coverage_campaign

EXPERIMENTS = 2_000
SEED = 2005
WORKERS = 2
BATCH = 1_024


def _run(**kwargs):
    started = time.perf_counter()
    result = run_coverage_campaign(experiments=EXPERIMENTS, seed=SEED, **kwargs)
    return result, time.perf_counter() - started


def _assert_identical(name, result, reference):
    assert result.stats.outcome_counts() == reference.stats.outcome_counts(), name
    assert [r.to_json() for r in result.stats.records] == [
        r.to_json() for r in reference.stats.records
    ], name
    assert result.estimates == reference.estimates, name
    assert result.stats.harness_failures == 0, name


def test_benchmark_parallel_campaign_matches_serial(benchmark):
    serial, serial_s = _run(batch=BATCH)

    parallel_started = time.perf_counter()
    parallel = benchmark.pedantic(
        lambda: run_coverage_campaign(
            experiments=EXPERIMENTS, seed=SEED, batch=BATCH, workers=WORKERS,
        ),
        rounds=1, iterations=1,
    )
    parallel_s = time.perf_counter() - parallel_started

    scalar, scalar_s = _run()
    scalar_parallel, scalar_parallel_s = _run(workers=WORKERS)

    cores = os.cpu_count() or 1
    common.report(
        "campaign.parallel",
        wall_s=parallel_s,
        trials=EXPERIMENTS,
        serial_s=round(serial_s, 6),
        speedup=round(serial_s / max(parallel_s, 1e-9), 2),
        scalar_serial_s=round(scalar_s, 6),
        scalar_parallel_s=round(scalar_parallel_s, 6),
        scalar_speedup=round(scalar_s / max(scalar_parallel_s, 1e-9), 2),
        status="measured" if cores >= WORKERS else "not_measured",
        workers=WORKERS,
        batch=BATCH,
        cores=cores,
    )

    # Identical results, not merely similar statistics — in every mode.
    _assert_identical("parallel", parallel, serial)
    _assert_identical("scalar", scalar, serial)
    _assert_identical("scalar-parallel", scalar_parallel, serial)
