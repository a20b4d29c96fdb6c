#!/usr/bin/env python3
"""Fault-injection campaign on the simulated processor (experiment E5).

Reruns the methodology of the paper's underlying studies [7, 8]: thousands
of single bit flips into a brake-controller task running under temporal
error masking on the mini-ISA machine, then:

* shows which error-detection mechanism of Table 1 caught each fault;
* estimates the coverage parameters C_D, P_T, P_OM, P_FS and compares them
  with the paper's assignment (Section 3.3);
* demonstrates a permanent (stuck-at) fault tripping the repeated-error
  suspicion so the node shuts down for off-line diagnosis.

The campaign runs on the resilient supervisor (repro.harness): pass a jobs
count to fan the trials out over crash-tolerant shard runners, and a
journal path to checkpoint the campaign (interrupt it with Ctrl-C or kill
-9 and rerun with the same path — it resumes where it stopped and the
statistics come out bit-identical).

Run:  python examples/fault_injection_campaign.py [experiments] [jobs] [journal]
"""

import sys

from repro import runtime
from repro.core.diagnosis import PermanentFaultSuspector
from repro.experiments import make_brake_workload, run_coverage_campaign
from repro.faults import Fault, FaultTarget, FaultType, TemInjectionHarness


def main() -> None:
    experiments = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    journal = sys.argv[3] if len(sys.argv) > 3 else None
    mode = f"{jobs} shard runners" if jobs else "serial in-process"
    print(f"Running {experiments} single-bit-flip experiments ({mode}) ...\n")
    # Shard runners get a per-trial budget; it comes from the run context.
    config = runtime.RunConfig(timeout_s=60.0 if jobs else None)
    with runtime.activate(runtime.RunContext(config)):
        result = run_coverage_campaign(
            experiments=experiments, seed=2005,
            workers=jobs, journal_path=journal,
        )
    print(result.render())
    print()
    print(result.stats.summary())
    print(
        f"campaign completeness: {result.stats.completeness:.3f} "
        f"({result.stats.harness_failures} trials lost to the harness)"
    )

    print()
    print("--- permanent-fault escalation (Section 2.5) ---")
    harness = TemInjectionHarness(make_brake_workload())
    stuck = Fault(
        fault_type=FaultType.PERMANENT,
        target=FaultTarget.PC,
        register="PC",
        bit=13,
        at_step=3,
    )
    outcomes, tripped = harness.run_job_sequence(
        stuck, jobs=10, suspector=PermanentFaultSuspector(window_jobs=8, threshold=3)
    )
    print(f"stuck-at PC fault, per-job TEM outcomes: {[o.value for o in outcomes]}")
    print(f"repeated-error suspicion tripped: {tripped} "
          "(node shuts down for off-line diagnosis)")


if __name__ == "__main__":
    main()
