"""Node failure-mode taxonomy and bookkeeping (Section 3.2.1).

The paper's node semantics:

* **FS node** — any detected error: fail-silent failure (silent, restart,
  diagnose, reintegrate if transient / stay down if permanent).
* **NLFT node** — detected transient errors are masked (P_T), cause an
  omission failure (P_OM) or a fail-silent failure (P_FS); permanents end in
  a permanent shutdown after diagnosis.
* Both — a *non-covered* error escapes all EDMs; the paper pessimistically
  charges it as a failure of the entire system.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List


class NodeStatus(enum.Enum):
    """Operational state of one node."""

    OPERATIONAL = "operational"
    #: Delivering nothing this instant; quick reintegration in progress.
    OMITTING = "omitting"
    #: Fail-silent: restarting + off-line diagnosis.
    RESTARTING = "restarting"
    #: Diagnosis found a permanent fault: down until external repair.
    DOWN_PERMANENT = "down_permanent"

    @property
    def provides_service(self) -> bool:
        """True when the node currently delivers results."""
        return self is NodeStatus.OPERATIONAL


class FailureKind(enum.Enum):
    """What kind of node-level failure occurred."""

    OMISSION = "omission"
    FAIL_SILENT = "fail_silent"
    PERMANENT_SHUTDOWN = "permanent_shutdown"
    #: Non-covered error: wrong output delivered without any indication.
    UNDETECTED = "undetected"


@dataclasses.dataclass(frozen=True)
class FailureRecord:
    """One node-level failure occurrence."""

    time: int
    node: str
    kind: FailureKind
    detail: str = ""


@dataclasses.dataclass
class NodeStatistics:
    """Counters kept by every node for campaign evaluation."""

    transient_faults: int = 0
    permanent_faults: int = 0
    masked: int = 0
    omissions: int = 0
    fail_silent: int = 0
    undetected: int = 0
    restarts_completed: int = 0
    failures: List[FailureRecord] = dataclasses.field(default_factory=list)

    def record(self, record: FailureRecord) -> None:
        self.failures.append(record)
        if record.kind is FailureKind.OMISSION:
            self.omissions += 1
        elif record.kind is FailureKind.FAIL_SILENT:
            self.fail_silent += 1
        elif record.kind is FailureKind.UNDETECTED:
            self.undetected += 1
