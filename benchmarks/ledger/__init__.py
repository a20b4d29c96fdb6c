"""Campaign ledger: the repository's end-to-end and per-layer benchmark.

Run from the repository root::

    python3 benchmarks/ledger run --workload e5_scalar --seed 2005 --seconds 10
    python3 benchmarks/ledger run --seed 2005 --json ledger.json     # all five
    python3 benchmarks/ledger run --workload e5_batch --trace 1       # per-layer
    python3 benchmarks/ledger compare parent.json change.json

See ``README.md`` beside this file for the workloads, the metrics and the
layer each per-layer metric belongs to.
"""
