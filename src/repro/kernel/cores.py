"""M-core execution abstraction for one node's kernel (ROADMAP item 4).

The paper's node model runs every task copy on a single processor; the
multicore extension gives each node a :class:`CoreSet` — M identical cores
with one running slot each — and a :class:`PlacementPolicy` deciding which
ready job may use which core:

* :attr:`PlacementPolicy.PARTITIONED` — every task is pinned to one core
  (``TaskSpec.core``, default core 0) and each core runs an independent
  single-core fixed-priority schedule.  With M = 1 this *is* the paper's
  kernel, bit for bit.
* :attr:`PlacementPolicy.GLOBAL` — one shared ready queue; the M
  highest-priority ready jobs run, preempting the lowest-priority running
  job when needed, and a preempted job may resume on a different core
  (a *migration*, counted in the kernel stats).

The :class:`CoreSet` itself is policy-free bookkeeping: slot occupancy and
deterministic slot selection.  The dispatch logic lives in
:class:`repro.kernel.scheduler.Scheduler`, the schedulability side in
:func:`repro.kernel.analysis.analyse` (``cores``, ``placement``).
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from ..errors import ConfigurationError


class PlacementPolicy(enum.Enum):
    """How ready jobs map onto the node's cores."""

    PARTITIONED = "partitioned"
    GLOBAL = "global"


class CoreSet:
    """M running slots with deterministic selection helpers.

    Slots hold whatever the scheduler runs (its ``_Running`` records);
    the core set never inspects them beyond identity, except through
    caller-supplied key functions.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ConfigurationError("a node needs at least one core")
        self.count = count
        self.slots: List[Optional[object]] = [None] * count

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True when any core is executing."""
        return any(slot is not None for slot in self.slots)

    def idle_core(self) -> Optional[int]:
        """Lowest-numbered idle core, or None when all are busy."""
        for core, slot in enumerate(self.slots):
            if slot is None:
                return core
        return None

    def victim_core(
        self,
        urgency: Callable[[object], int],
        preemptable: Callable[[object], bool],
    ) -> Optional[int]:
        """Core to preempt: the busy, preemptable slot with the *largest*
        priority number (least urgent job); ties break to the lowest core
        index.  Returns None when nothing is preemptable."""
        best_core: Optional[int] = None
        best_urgency: Optional[int] = None
        for core, slot in enumerate(self.slots):
            if slot is None or not preemptable(slot):
                continue
            value = urgency(slot)
            if best_urgency is None or value > best_urgency:
                best_core = core
                best_urgency = value
        return best_core

    def clear(self) -> None:
        for core in range(self.count):
            self.slots[core] = None
