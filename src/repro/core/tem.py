"""Temporal error masking (TEM) — the paper's key mechanism (Section 2.5).

The logic is implemented as a **pure state machine**,
:class:`TemStateMachine`, decoupled from any notion of time or scheduling.
Two drivers use it:

* the DES kernel (:mod:`repro.kernel.scheduler`) plays copies out over
  simulated time with preemption and budget timers;
* the direct fault-injection harness (:mod:`repro.faults.campaign`) drives
  it with back-to-back machine runs.

Protocol
--------
The driver repeatedly calls :meth:`TemStateMachine.next_action`:

* ``RUN_COPY`` — execute one more copy of the task, then report the outcome
  with :meth:`copy_completed` (a result was produced) or
  :meth:`copy_aborted` (an EDM terminated the copy);
* ``DELIVER`` — two matching results exist; commit the result/state;
* ``OMIT`` — enforce an omission failure (deadline exhausted, or three
  disagreeing results).

The *deadline check* is delegated to a driver-supplied predicate
``can_run_another_copy()``, because only the driver knows the current time,
remaining slack and pending higher-priority load.  This mirrors the paper:
"The kernel always checks the deadline of the task after an error is
detected to determine whether it is possible to execute an additional task
copy and still meet the deadline."
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, List, Optional

from ..errors import ReproError
from ..obs import metrics as obs_metrics
from ..types import Result
from .comparison import majority_vote, results_match


#: Mechanism marker recorded when a recovery is skipped because the task's
#: weakly-hard (m,k) window still has miss budget.  It rides in
#: ``TemReport.detection_mechanisms`` (and hence mechanism counts) and
#: prefixes the omission reason, so scalar, batch and journal paths all
#: carry it without schema changes.
MK_BUDGET_MISS = "mk_budget_miss"


class TemAction(enum.Enum):
    """What the driver must do next."""

    RUN_COPY = "run_copy"
    DELIVER = "deliver"
    OMIT = "omit"


class TemOutcome(enum.Enum):
    """Terminal classification of one TEM-protected job."""

    #: Delivered with no error observed anywhere (scenario i).
    OK = "ok"
    #: Errors occurred but a correct-by-vote result was delivered
    #: (scenarios ii-iv).
    MASKED = "masked"
    #: No result delivered before the deadline (omission failure).
    OMISSION = "omission"

    @property
    def counter_name(self) -> str:
        """Metrics counter name for this outcome (``tem.outcome.<value>``)."""
        return "tem.outcome." + self.value


@dataclasses.dataclass
class TemReport:
    """Statistics of one completed TEM job (for coverage accounting)."""

    outcome: TemOutcome
    delivered_result: Optional[Result]
    copies_run: int
    errors_detected: int
    detection_mechanisms: List[str]
    omission_reason: Optional[str] = None


class TemStateMachine:
    """Drives one job of one critical task through TEM.

    Parameters
    ----------
    can_run_another_copy:
        Deadline predicate supplied by the driver; consulted before every
        recovery copy (and before the mandatory second copy, since enforcing
        an omission beats blowing the deadline mid-copy).
    max_copies:
        Hard cap on total executions per job — the fault-tolerant schedule
        reserves slack for a bounded number of recoveries (Section 2.8);
        reaching the cap forces an omission.
    accept_miss:
        Optional weakly-hard predicate (Liang et al., arXiv:2008.06192).
        Consulted only when an error has been detected and a *recovery*
        copy would be needed: returning True converts the recovery into a
        controlled miss (an omission tagged :data:`MK_BUDGET_MISS`) that
        the task's (m,k) window absorbs, freeing the reserved slack.
        ``None`` — or a predicate that always refuses, e.g. a (0,1)
        window — leaves the classic hard-deadline behaviour untouched.
    """

    #: TEM needs two matching results; with a single spare that is at most
    #: two clean copies plus one recovery per anticipated fault.
    DEFAULT_MAX_COPIES = 5

    def __init__(
        self,
        can_run_another_copy: Callable[[], bool],
        max_copies: int = DEFAULT_MAX_COPIES,
        accept_miss: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._can_run_another_copy = can_run_another_copy
        self._max_copies = max_copies
        self._accept_miss = accept_miss
        self._results: List[Result] = []
        self._copies_run = 0
        self._errors_detected = 0
        self._mechanisms: List[str] = []
        self._finished: Optional[TemReport] = None
        self._pending_copy = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once DELIVER or OMIT has been decided."""
        return self._finished is not None

    @property
    def report(self) -> TemReport:
        """The terminal report; raises if the job is still in progress."""
        if self._finished is None:
            raise ReproError("TEM job still in progress; no report yet")
        return self._finished

    @property
    def copies_run(self) -> int:
        return self._copies_run

    @property
    def errors_detected(self) -> int:
        """Detected errors so far (comparison mismatches and EDM aborts)."""
        return self._errors_detected

    # ------------------------------------------------------------------
    # Driver protocol
    # ------------------------------------------------------------------
    def next_action(self) -> TemAction:
        """What should the driver do now?"""
        if self._finished is not None:
            return TemAction.DELIVER if self._finished.delivered_result is not None else TemAction.OMIT
        if self._pending_copy:
            raise ReproError("previous copy not yet reported; call copy_completed/aborted")
        # Two completed results: compare (the TEM error-detection comparison).
        if len(self._results) >= 2:
            vote = majority_vote(self._results)
            if vote is not None:
                self._finish_delivered(vote)
                return TemAction.DELIVER
            if len(self._results) >= 3:
                # Three disagreeing results: no majority -> omission.
                self._finish_omitted("no_majority")
                return TemAction.OMIT
            # Mismatch between the two results counts as a detected error.
            self._note_error("comparison")
            return self._try_start_copy(reason="comparison mismatch")
        return self._try_start_copy(reason="initial copies")

    def copy_completed(self, result: Result) -> None:
        """Report that the running copy finished and produced *result*."""
        self._expect_pending()
        self._results.append(tuple(result))

    def copy_aborted(self, mechanism: str) -> None:
        """Report that an EDM terminated the running copy.

        Following Section 2.5, the aborted copy yields no result; the state
        machine will ask for a replacement copy if the deadline allows.
        """
        self._expect_pending()
        self._note_error(mechanism)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _expect_pending(self) -> None:
        if not self._pending_copy:
            raise ReproError("no copy is currently running")
        self._pending_copy = False

    def _note_error(self, mechanism: str) -> None:
        self._errors_detected += 1
        self._mechanisms.append(mechanism)

    def _try_start_copy(self, reason: str) -> TemAction:
        if self._copies_run >= self._max_copies:
            self._finish_omitted(f"copy budget exhausted ({reason})")
            return TemAction.OMIT
        # Weakly-hard short-circuit: once an error is detected, the next
        # copy is a *recovery* — if the (m,k) window can absorb one more
        # miss, take the controlled miss instead of re-executing.  The
        # mandatory first and second copies (errors_detected == 0) are
        # never skipped, so error detection coverage is unchanged.
        if (
            self._accept_miss is not None
            and self._copies_run > 0
            and self._errors_detected > 0
            and self._accept_miss()
        ):
            self._mechanisms.append(MK_BUDGET_MISS)
            self._finish_omitted(f"{MK_BUDGET_MISS}: recovery skipped ({reason})")
            return TemAction.OMIT
        # The first copy always runs (no error handled yet); subsequent
        # copies are gated by the deadline check.
        if self._copies_run > 0 and not self._can_run_another_copy():
            self._finish_omitted(f"deadline does not allow another copy ({reason})")
            return TemAction.OMIT
        self._copies_run += 1
        self._pending_copy = True
        return TemAction.RUN_COPY

    def _finish_delivered(self, result: Result) -> None:
        outcome = TemOutcome.OK if self._errors_detected == 0 else TemOutcome.MASKED
        self._finished = TemReport(
            outcome=outcome,
            delivered_result=result,
            copies_run=self._copies_run,
            errors_detected=self._errors_detected,
            detection_mechanisms=list(self._mechanisms),
        )
        self._account()

    def _finish_omitted(self, reason: str) -> None:
        self._finished = TemReport(
            outcome=TemOutcome.OMISSION,
            delivered_result=None,
            copies_run=self._copies_run,
            errors_detected=self._errors_detected,
            detection_mechanisms=list(self._mechanisms),
            omission_reason=reason,
        )
        self._account()

    def _account(self) -> None:
        """Metrics once per terminal job — shared by both TEM drivers (the
        DES kernel and the direct injection harness)."""
        report = self._finished
        assert report is not None
        _account_report(report)


def _account_report(report: TemReport) -> None:
    """Metrics once per terminal TEM job (temporal and spatial alike)."""
    registry = obs_metrics.active()
    registry.inc("tem.jobs")
    registry.inc(report.outcome.counter_name)
    registry.inc("tem.copies", report.copies_run)
    registry.inc("tem.errors_detected", report.errors_detected)
    if report.omission_reason is not None and report.omission_reason.startswith(
        MK_BUDGET_MISS
    ):
        registry.inc("tem.mk_accepted_misses")


class SpatialTem:
    """Spatial-redundancy TEM: copies race concurrently on distinct cores.

    The EFTOS voting-farm arrangement (arXiv:1401.2920) applied at node
    level (ROADMAP item 4): instead of running the two copies of a
    critical job back to back on one core, the kernel launches them
    *concurrently* on different cores and compares at joint completion; a
    recovery copy (launched on a third core when one exists) replaces any
    copy an EDM aborts, or breaks the tie between two disagreeing results.

    Protocol — the driver (:class:`repro.kernel.scheduler.Scheduler`):

    * calls :meth:`claim_launches` and starts exactly that many new
      copies (two at release, replacements/tie-breakers later);
    * reports every copy's end with :meth:`copy_completed` or
      :meth:`copy_aborted`, then re-checks :attr:`finished` and calls
      :meth:`claim_launches` again while undecided;
    * on :attr:`finished`, reads :attr:`report` and cancels any copy
      still running (the decision races the slowest copy).

    Deliver/omit rules match :class:`TemStateMachine`: two matching
    results deliver (MASKED when any error was detected on the way),
    three disagreeing results or an exhausted copy/deadline/miss budget
    force an omission.  ``accept_miss`` is consulted exactly when a
    *recovery* launch (third copy onward) would be needed after a
    detected error, mirroring the temporal machine's weakly-hard
    short-circuit.
    """

    def __init__(
        self,
        can_run_another_copy: Callable[[], bool],
        max_copies: int = TemStateMachine.DEFAULT_MAX_COPIES,
        accept_miss: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._can_run_another_copy = can_run_another_copy
        self._max_copies = max_copies
        self._accept_miss = accept_miss
        self._results: List[Result] = []
        self._mechanisms: List[str] = []
        self._errors_detected = 0
        self._launched = 0
        self._in_flight = 0
        self._mismatch_noted = False
        self._finished: Optional[TemReport] = None

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished is not None

    @property
    def report(self) -> TemReport:
        if self._finished is None:
            raise ReproError("spatial TEM job still in progress; no report yet")
        return self._finished

    @property
    def errors_detected(self) -> int:
        return self._errors_detected

    # ------------------------------------------------------------------
    # Driver protocol
    # ------------------------------------------------------------------
    def claim_launches(self) -> int:
        """Copies the driver must launch *now* (0 once decided).

        May instead settle the job as an omission when no further launch
        is allowed and the copies still in flight cannot produce a
        decision on their own.
        """
        if self._finished is not None:
            return 0
        claimed = 0
        while self._needed(claimed) > 0:
            if self._launched + claimed >= self._max_copies:
                if self._in_flight + claimed == 0:
                    self._finish_omitted("copy budget exhausted (spatial)")
                break
            if self._launched + claimed >= 2:
                # A recovery launch after a detected error: the weakly-hard
                # miss budget may absorb the miss instead (cf. the temporal
                # machine's accept_miss short-circuit).
                if (
                    self._accept_miss is not None
                    and self._errors_detected > 0
                    and self._accept_miss()
                ):
                    self._mechanisms.append(MK_BUDGET_MISS)
                    self._finish_omitted(
                        f"{MK_BUDGET_MISS}: recovery skipped (spatial)"
                    )
                    break
            if self._launched + claimed >= 1 and not self._can_run_another_copy():
                if self._in_flight + claimed == 0:
                    self._finish_omitted(
                        "deadline does not allow another copy (spatial)"
                    )
                break
            claimed += 1
        if self._finished is not None:
            return 0
        self._launched += claimed
        self._in_flight += claimed
        return claimed

    def copy_completed(self, result: Result) -> None:
        """One concurrent copy finished and produced *result*."""
        self._expect_in_flight()
        self._results.append(tuple(result))
        self._evaluate()

    def copy_aborted(self, mechanism: str) -> None:
        """An EDM terminated one concurrent copy."""
        self._expect_in_flight()
        self._note_error(mechanism)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _needed(self, claimed: int) -> int:
        """Further live copies needed to still reach a decision."""
        required = 2 if len(self._results) < 2 else len(self._results) + 1
        return (required - len(self._results)) - (self._in_flight + claimed)

    def _expect_in_flight(self) -> None:
        if self._in_flight <= 0:
            raise ReproError("no spatial copy is currently in flight")
        self._in_flight -= 1

    def _note_error(self, mechanism: str) -> None:
        self._errors_detected += 1
        self._mechanisms.append(mechanism)

    def _evaluate(self) -> None:
        if self._finished is not None or len(self._results) < 2:
            return
        vote = majority_vote(self._results)
        if vote is not None:
            outcome = (
                TemOutcome.OK if self._errors_detected == 0 else TemOutcome.MASKED
            )
            self._finished = TemReport(
                outcome=outcome,
                delivered_result=vote,
                copies_run=self._launched,
                errors_detected=self._errors_detected,
                detection_mechanisms=list(self._mechanisms),
            )
            _account_report(self._finished)
            return
        if len(self._results) >= 3:
            self._finish_omitted("no_majority")
            return
        # Two disagreeing results: one detected comparison error, noted
        # once; a tie-breaking copy is claimed by the next claim_launches.
        if not self._mismatch_noted:
            self._mismatch_noted = True
            self._note_error("comparison")

    def _finish_omitted(self, reason: str) -> None:
        self._finished = TemReport(
            outcome=TemOutcome.OMISSION,
            delivered_result=None,
            copies_run=self._launched,
            errors_detected=self._errors_detected,
            detection_mechanisms=list(self._mechanisms),
            omission_reason=reason,
        )
        _account_report(self._finished)


def run_tem_direct(
    execute_copy: Callable[[int], "tuple[Optional[Result], Optional[str]]"],
    can_run_another_copy: Callable[[], bool] = lambda: True,
    max_copies: int = TemStateMachine.DEFAULT_MAX_COPIES,
    accept_miss: Optional[Callable[[], bool]] = None,
) -> TemReport:
    """Convenience driver running TEM to completion without a scheduler.

    Parameters
    ----------
    execute_copy:
        Called with the copy index (0-based); returns ``(result, None)``
        for a completed copy or ``(None, mechanism)`` when an EDM fired.
    accept_miss:
        Optional weakly-hard predicate forwarded to
        :class:`TemStateMachine` (skip a recovery when the (m,k) miss
        budget allows); ``None`` keeps the hard-deadline behaviour.

    Used by fault-injection campaigns and unit tests.
    """
    machine = TemStateMachine(
        can_run_another_copy, max_copies=max_copies, accept_miss=accept_miss
    )
    copy_index = 0
    while True:
        action = machine.next_action()
        if action is not TemAction.RUN_COPY:
            return machine.report
        result, mechanism = execute_copy(copy_index)
        copy_index += 1
        if mechanism is not None:
            machine.copy_aborted(mechanism)
        else:
            if result is None:
                raise ReproError("execute_copy returned neither result nor mechanism")
            machine.copy_completed(result)
