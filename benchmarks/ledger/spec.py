"""What the ledger measures: workloads, end-to-end metrics and their bounds.

``BENCHMARK.json`` at the repository root mirrors these tables (a self-test
keeps the two in step).  This module imports nothing from the program, so
the command-line front end can validate arguments before the program is
even importable.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS = {
    "e5_scalar": (
        "default serial E5 campaign: the scalar cpu interpreter and per-trial "
        "kernel executable builds dominate; the batch engine and journal are "
        "bypassed"
    ),
    "e5_batch": (
        "same campaign with batch=1024 and a journal: the cpu.batch lockstep "
        "engine, per-lane faults bookkeeping, obs snapshot merges and journal "
        "appends carry it"
    ),
    "e5_jobs2": (
        "same campaign with workers=2, batch=1024 and a journal: the harness "
        "process pool, which ignores batch, is the path being measured"
    ),
    "reliability_sweep": (
        "Figures 12-14 and the MTTF table on seeded BBW parameters: only the "
        "models and reliability layers run, split between sweep_solver and "
        "point solves"
    ),
    "multicore_des": (
        "200 multicore DES trials per rep over all four TEM-mode x lock-"
        "protocol configs: only the sim and kernel layers run, no CPU model"
    ),
}

#: The three E5 workloads run the identical campaign per rep, so their
#: per-rep record digests must agree.
E5_WORKLOADS = ("e5_scalar", "e5_batch", "e5_jobs2")


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric and the share by which it may worsen."""

    name: str
    unit: str
    better: str
    bound: float


#: Definitions and the reasons for each bound are in README.md.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("ops_per_s", "1/s", "higher", 0.15),
    EndToEnd("call_p50_ms", "ms", "lower", 0.15),
    EndToEnd("call_tail_ms", "ms", "lower", 0.20),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
)

#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 3

#: Seconds one run measures when ``--seconds`` is not given.
DEFAULT_SECONDS = 10

#: Seed used when ``--seed`` is not given (the E5 campaign's own seed).
DEFAULT_SEED = 2005

