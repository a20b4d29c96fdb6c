"""The scheduler's decisions in the forms production replaced.

Production (:func:`repro.kernel.scheduler.next_boundary` and
:func:`repro.kernel.scheduler.best_ready`) makes both choices in one pass
without building candidates.  These are the forms they replaced: collect
every candidate, then take ``min`` under an explicit key.  For every
input the two must return the same boundary and the same job.

:func:`deadline_predicate` is the TEM deadline check in its closure form,
which production replaced with the pure
:func:`repro.kernel.scheduler.another_copy_fits` reached through
``functools.partial`` (a closure would not survive ``copy.deepcopy``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.kernel.scheduler import Job, Scheduler, _Section
from repro.kernel.task import CopyPlan

#: Tie-break among boundaries that fall on the same tick.
BOUNDARY_RANK = {"error": 0, "cs_exit": 1, "cs_enter": 2, "complete": 3, "budget": 4}


def next_boundary(
    plan: CopyPlan, sections: Sequence[_Section], consumed: int, budget_remaining: int
) -> Tuple[int, str]:
    """Earliest boundary of the running copy; ties go to the lowest rank."""
    candidates: List[Tuple[int, str]] = []
    if plan.detected_error is not None and plan.error_at is not None:
        candidates.append((max(0, plan.error_at - consumed), "error"))
    section = next((s for s in sections if not s.done), None)
    if section is not None:
        if section.entered:
            candidates.append((max(0, section.exit_at - consumed), "cs_exit"))
        else:
            candidates.append((max(0, section.enter_at - consumed), "cs_enter"))
    candidates.append((max(1, plan.duration - consumed), "complete"))
    candidates.append((budget_remaining, "budget"))
    return min(candidates, key=lambda c: (c[0], BOUNDARY_RANK[c[1]]))


def best_ready(ready: Sequence[Job], core: Optional[int] = None) -> Optional[Job]:
    """Lowest priority number among the (core-homed) ready jobs; ``min``
    keeps the first of equals."""
    return min(
        (job for job in ready if core is None or job.home_core == core),
        key=lambda job: job.task.priority,
        default=None,
    )


def deadline_predicate(scheduler: Scheduler, job: Job) -> Callable[[], bool]:
    """TEM's ``can_run_another_copy`` as a closure over the live kernel."""

    def can_run_another_copy() -> bool:
        cost = job.task.wcet + scheduler.config.comparison_cost
        return scheduler.sim.now + cost <= job.absolute_deadline

    return can_run_another_copy
