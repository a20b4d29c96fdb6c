"""Restart and reintegration sequencing for shut-down nodes.

The paper's timing (Section 3.3):

* a fail-silent failure costs a hardware reset plus an off-line diagnostic
  test (~1.4 s) followed by OS restart and TDMA reintegration (~1.6 s) —
  3 s total, i.e. mu_R = 1200 repairs/hour;
* an omission failure only needs reintegration into the message schedule,
  at most 1.6 s, i.e. mu_OM = 2250 repairs/hour.

:class:`RestartController` runs these sequences on the simulator and invokes
a completion callback with the diagnosis verdict, so the owning node can
decide between reintegration and permanent shutdown.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.diagnosis import REINTEGRATION_TICKS, OfflineDiagnosis
from ..errors import ConfigurationError
from ..sim import PRIORITY_KERNEL, Simulator, TraceRecorder


class RestartController:
    """Sequences fail-silent restarts and omission recoveries for one node.

    Parameters
    ----------
    sim:
        Time base.
    node_name:
        For traces.
    diagnosis:
        The off-line self-test model (duration + verdict).
    reintegration_ticks:
        OS restart + TDMA reintegration time (1.6 s by default).
    """

    def __init__(
        self,
        sim: Simulator,
        node_name: str,
        diagnosis: Optional[OfflineDiagnosis] = None,
        reintegration_ticks: int = REINTEGRATION_TICKS,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if reintegration_ticks <= 0:
            raise ConfigurationError("reintegration time must be positive")
        self.sim = sim
        self.node_name = node_name
        self.diagnosis = diagnosis if diagnosis is not None else OfflineDiagnosis()
        self.reintegration_ticks = reintegration_ticks
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._busy = False

    @property
    def busy(self) -> bool:
        """True while a restart/recovery sequence is in progress."""
        return self._busy

    # ------------------------------------------------------------------
    def begin_restart(
        self,
        permanent_fault_present: bool,
        on_done: Callable[[bool], None],
    ) -> None:
        """Run the full fail-silent sequence (diagnosis + reintegration).

        *on_done* receives ``permanent_fault_found``; when True the node
        must stay down (Markov state 1), otherwise it reintegrates
        (back to state 0 at rate mu_R).
        """
        if self._busy:
            raise ConfigurationError(f"node {self.node_name!r} is already restarting")
        self._busy = True
        self.trace.emit(self.sim.now, "node.restart_begin", self.node_name)

        def diagnose() -> None:
            result = self.diagnosis.run(permanent_fault_present)
            if result.permanent_fault_found:
                self._busy = False
                self.trace.emit(
                    self.sim.now, "node.permanent_fault", self.node_name
                )
                on_done(True)
                return
            self.sim.schedule_after(
                self.reintegration_ticks,
                lambda: self._finish(on_done),
                priority=PRIORITY_KERNEL,
                label=f"{self.node_name}:reintegrate",
            )

        self.sim.schedule_after(
            self.diagnosis.duration_ticks,
            diagnose,
            priority=PRIORITY_KERNEL,
            label=f"{self.node_name}:diagnosis",
        )

    def begin_omission_recovery(self, on_done: Callable[[], None]) -> None:
        """Run the short omission-recovery sequence (reintegration only)."""
        if self._busy:
            raise ConfigurationError(f"node {self.node_name!r} is already recovering")
        self._busy = True
        self.trace.emit(self.sim.now, "node.omission_recovery", self.node_name)
        self.sim.schedule_after(
            self.reintegration_ticks,
            lambda: self._finish(lambda _found=None: on_done()),
            priority=PRIORITY_KERNEL,
            label=f"{self.node_name}:omission-recovery",
        )

    def _finish(self, on_done: Callable[[bool], None]) -> None:
        self._busy = False
        self.trace.emit(self.sim.now, "node.reintegrated", self.node_name)
        on_done(False)
