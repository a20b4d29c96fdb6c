"""Priority assignment for the fixed-priority kernel.

Section 2.8: "In our kernel, priority assignments are made on the basis of
the *criticality* of the task ... e.g. a brake request is assigned a higher
priority than a diagnostic request."

:func:`assign_criticality_monotonic` implements that policy: all critical
tasks above all non-critical ones; within a class, deadline-monotonic
(shorter relative deadline = higher priority), which is optimal for
constrained-deadline FP scheduling within each band.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from .task import Criticality, TaskSpec


def _with_priorities(ordered: Sequence[TaskSpec]) -> List[TaskSpec]:
    """Re-issue specs with priorities 0..n-1 following the given order."""
    return [dataclasses.replace(task, priority=index) for index, task in enumerate(ordered)]


def assign_criticality_monotonic(tasks: Sequence[TaskSpec]) -> List[TaskSpec]:
    """The paper's policy: criticality first, deadline-monotonic within.

    Critical tasks occupy the highest priority band so that a non-critical
    overrun can never delay a brake command — together with MMU confinement
    this realises the "no interaction between critical and non-critical
    tasks" requirement of Section 2.2.
    """
    ordered = sorted(
        tasks,
        key=lambda t: (t.criticality is not Criticality.CRITICAL, t.relative_deadline, t.name),
    )
    return _with_priorities(ordered)
