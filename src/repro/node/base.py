"""Common node machinery shared by FS and NLFT node implementations.

A node couples a host (behavioural model or a full simulated kernel), an
optional network interface, a restart controller and failure bookkeeping.
Concrete subclasses implement :meth:`NodeBase.inject_fault`, the entry point
the Poisson fault injector calls.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..faults.types import FaultType
from ..net.controller import NetworkInterface
from ..sim import Simulator, TraceRecorder
from .failures import FailureKind, FailureRecord, NodeStatistics, NodeStatus
from .reintegration import RestartController

#: Observer signature: (node, old_status, new_status).
StatusObserver = Callable[["NodeBase", NodeStatus, NodeStatus], None]


class NodeBase:
    """Shared state machine for computer nodes.

    Parameters
    ----------
    sim / rng / trace:
        Simulation substrate; the rng drives this node's stochastic fault
        outcomes only.
    network:
        Optional communication controller; silenced and resumed in lockstep
        with the node status (the fail-silent boundary of Figure 1).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[TraceRecorder] = None,
        network: Optional[NetworkInterface] = None,
        restart: Optional[RestartController] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rng = rng if rng is not None else np.random.default_rng(0)  # reprolint: disable=SEED001 -- Documented fallback: a Node constructed without an explicit generator gets a fixed default stream for standalone use; every campaign path injects a derive_seed-derived RNG.
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.network = network
        self.restart_controller = (
            restart
            if restart is not None
            else RestartController(sim, name, trace=self.trace)
        )
        self.status = NodeStatus.OPERATIONAL
        self.stats = NodeStatistics()
        self.permanent_fault_present = False
        self._observers: List[StatusObserver] = []
        self._undetected_observers: List[Callable[["NodeBase"], None]] = []

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, observer: StatusObserver) -> None:
        """Register a system-level observer of status changes."""
        self._observers.append(observer)

    def add_undetected_observer(self, observer: Callable[["NodeBase"], None]) -> None:
        """Register an observer of *undetected* (non-covered) failures.

        These do not change the node's status — the node does not know
        anything happened — but the system-level analysis applies the
        paper's pessimistic whole-system-failure rule, so monitors need the
        notification."""
        self._undetected_observers.append(observer)

    def _set_status(self, status: NodeStatus) -> None:
        if status is self.status:
            return
        old = self.status
        self.status = status
        self.trace.emit(
            self.sim.now, "node.status", self.name,
            old=old.value, new=status.value,
        )
        if self.network is not None:
            if status.provides_service:
                self.network.resume()
            else:
                self.network.go_silent()
        for observer in self._observers:
            observer(self, old, status)

    @property
    def operational(self) -> bool:
        """True when the node currently provides service."""
        return self.status.provides_service

    # ------------------------------------------------------------------
    # Fault entry point (Poisson injector victim)
    # ------------------------------------------------------------------
    def inject_fault(self, fault_type: FaultType) -> None:
        """Deliver one activated fault to this node."""
        if self.status is NodeStatus.DOWN_PERMANENT:
            return  # dead hardware cannot fail again
        if fault_type is FaultType.PERMANENT:
            self.stats.permanent_faults += 1
            self.permanent_fault_present = True
            self._on_permanent_fault()
        else:
            self.stats.transient_faults += 1
            self._on_transient_fault()

    def _on_transient_fault(self) -> None:
        raise NotImplementedError

    def _on_permanent_fault(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Failure transitions shared by node types
    # ------------------------------------------------------------------
    def fail_silent(self, detail: str = "") -> None:
        """Enter the fail-silent sequence (restart + diagnosis)."""
        if self.status in (NodeStatus.RESTARTING, NodeStatus.DOWN_PERMANENT):
            return
        self.stats.record(
            FailureRecord(self.sim.now, self.name, FailureKind.FAIL_SILENT, detail)
        )
        self._enter_restart()

    def _enter_restart(self) -> None:
        self._host_shutdown()
        self._set_status(NodeStatus.RESTARTING)
        self.restart_controller.begin_restart(
            self.permanent_fault_present, self._restart_done
        )

    def _restart_done(self, permanent_found: bool) -> None:
        if permanent_found:
            self.stats.record(
                FailureRecord(
                    self.sim.now, self.name, FailureKind.PERMANENT_SHUTDOWN,
                    "diagnosis found permanent fault",
                )
            )
            self._set_status(NodeStatus.DOWN_PERMANENT)
            return
        self.stats.restarts_completed += 1
        self._host_resume()
        self._set_status(NodeStatus.OPERATIONAL)

    def omission_failure(self, detail: str = "") -> None:
        """Enter the short omission-recovery sequence."""
        if self.status is not NodeStatus.OPERATIONAL:
            return
        self.stats.record(
            FailureRecord(self.sim.now, self.name, FailureKind.OMISSION, detail)
        )
        self._set_status(NodeStatus.OMITTING)
        self.restart_controller.begin_omission_recovery(self._omission_done)

    def _omission_done(self) -> None:
        if self.permanent_fault_present:
            # A permanent fault surfaced as an omission keeps erroring; the
            # suspicion machinery will escalate on the next jobs, but if the
            # node is behavioural we escalate directly to restart.
            self._enter_restart()
            return
        self._host_resume()
        self._set_status(NodeStatus.OPERATIONAL)

    def undetected_failure(self, detail: str = "") -> None:
        """A non-covered error escaped: wrong output without indication.

        The node itself keeps running (it does not know anything happened);
        system-level observers apply the paper's pessimistic rule (whole-
        system failure).
        """
        self.stats.record(
            FailureRecord(self.sim.now, self.name, FailureKind.UNDETECTED, detail)
        )
        for observer in self._undetected_observers:
            observer(self)

    # ------------------------------------------------------------------
    # Host hooks (kernel-backed nodes override)
    # ------------------------------------------------------------------
    def _host_shutdown(self) -> None:
        """Stop the host's task execution (default: nothing to stop)."""

    def _host_resume(self) -> None:
        """Resume the host's task execution after reintegration."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.status.value})"
