#!/usr/bin/env python3
"""Monte-Carlo cross-validation of the analytical models (experiment E8).

Simulates hundreds of one-year missions of the six-node BBW system on the
discrete-event simulator — Poisson fault arrivals, node restart /
reintegration / omission timing, degraded-mode membership — and compares
the empirical survival fractions against the Markov-model reliabilities of
Section 3.2.  Agreement here means the analytic transition structures
really encode the simulated node semantics.

The replicas run on the resilient campaign supervisor (repro.harness):
pass a jobs count to distribute them over crash-tolerant shard runners.

Run:  python examples/monte_carlo_validation.py [replicas] [jobs]
"""

import sys

from repro.experiments import compare_braking_under_faults, run_simulation_study


def main() -> None:
    replicas = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    print(f"Simulating {replicas} one-year missions per configuration ...\n")
    study = run_simulation_study(
        replicas=replicas, mission_hours=8_760.0, workers=jobs,
    )
    print(study.render())

    print()
    print("Functional check: identical fault burst, FS vs NLFT nodes")
    print(compare_braking_under_faults().render())


if __name__ == "__main__":
    main()
