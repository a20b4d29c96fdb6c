#!/usr/bin/env python3
"""Fault-tolerant schedulability analysis (Section 2.8).

Shows, for a realistic wheel-node task set:

* plain response-time analysis vs the fault-tolerant analysis with TEM's
  double execution and reserved recovery slack;
* how many recovery executions per busy period the schedule's slack buys;
* what happens when load grows until the guarantee is lost.

Run:  python examples/schedulability_analysis.py
"""

import dataclasses

from repro.experiments import compute_schedulability, wheel_node_task_set
from repro.kernel import FaultHypothesis, analyse, max_tolerable_faults
from repro.units import us


def main() -> None:
    print("Wheel-node task set under plain vs fault-tolerant RTA")
    print(compute_schedulability().render())

    print()
    print("Anticipated fault count vs schedulability (slack dimensioning):")
    tasks = wheel_node_task_set()
    for faults in range(0, 7):
        result = analyse(tasks, FaultHypothesis(max_faults=faults),
                         comparison_cost=us(20))
        verdict = "schedulable" if result.schedulable else "NOT schedulable"
        worst = max(
            (row.response_time or 10**9) for row in result.per_task
        )
        print(f"  F={faults}: {verdict:>16s}   worst response time {worst} us")

    print()
    print("Scaling the brake-control WCET until the guarantee is lost:")
    for wcet_us in (600, 800, 1000, 1200, 1400, 1600):
        scaled = [
            dataclasses.replace(task, wcet=us(wcet_us))
            if task.name == "brake_control" else task
            for task in tasks
        ]
        tolerated = max_tolerable_faults(scaled, comparison_cost=us(20))
        print(f"  brake_control WCET={wcet_us:>5d} us -> "
              f"max tolerable recoveries per busy period: {tolerated}")


if __name__ == "__main__":
    main()
