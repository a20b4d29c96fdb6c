"""Machine-level fault-injection campaigns under TEM (experiment E5).

This reproduces the *methodology* of the studies the paper builds on
([7, 8]): inject single bit flips into a processor executing a critical task
under temporal error masking, classify every experiment's outcome, and
estimate the coverage parameters (C_D, P_T, P_OM, P_FS) that feed the
dependability models.

Harness structure per experiment:

1. every experiment runs on a **clone** of the harness's pristine
   template executable, which the workload factory builds once (so
   experiments are independent and none pays for a rebuild);
2. the TEM state machine runs the task copy by copy; the machine is stepped
   *instruction by instruction* and the fault is applied when the global
   step counter reaches ``fault.at_step`` (mid-execution injection with
   emergent behaviour);
3. every copy is guarded by a step budget (the execution-time monitor) and,
   optionally, a control-flow signature check;
4. the outcome is classified against the golden (fault-free) result.

**Golden-trace replay** (after Berrojo et al., "New Techniques for
Speeding-up Fault-Injection Campaigns", DATE 2002).  Each harness runs
its fault-free ("golden") job once, single-stepped, and keeps: the
replies, start and end steps of ``max_copies`` copies run back to back,
and after each copy the value of every memory word *live* there (read
before it is written by the golden copies after it); a checkpoint (an
executable clone) before every golden step; and a def/use table of all
those copies (:mod:`repro.faults.liveness`).
:meth:`TemInjectionHarness.settle_or_run` then drives a real TEM state machine — the deadline check in step
currency and the trial's (m,k) window included — over a job that
simulates only where the fault can act:

* copies before the fault's arrival replay their golden replies;
* the arrival copy resumes from the checkpoint at the arrival step, and
  it and every later copy run on the CPU until a copy ends with the
  golden value and no ECC error bit on every live word: the words it
  still differs in are written before they are read or never touched
  again, so the rest of the job is the golden one (registers, the
  signature and the halt flag are reset by the next copy's ``prepare``);
* from then on each copy replays its golden reply and golden length, so
  the deadline check still counts steps.

A *dead* fault — a transient register or memory flip whose location the
fault-free job, from the arrival on, writes before it reads or never
touches again — simulates no copy at all (:meth:`settle`); accesses
between instructions (a copy's ``prepare`` and input writes, the
previous copy's signature check and output reads) count as happening
before the injection at that step, as in the stepper below.  Permanent
faults, faults without an arrival step and templates with latent ECC
errors are simulated from the start, and :meth:`run_experiment`
simulates whatever it is given: it is the oracle of the replay.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..core.control_flow import ControlFlowError, SignatureMonitor
from ..core.diagnosis import PermanentFaultSuspector
from ..core.tem import TemOutcome, TemReport, run_tem_direct
from ..cpu.exceptions import HardwareException
from ..cpu.memory import Memory
from ..errors import ConfigurationError
from ..kernel.task import MachineExecutable, MKWindow
from ..obs import metrics as obs_metrics
from ..types import Result
from .injector import MachineFaultInjector
from .liveness import AccessLog, LivenessTable
from .outcomes import (
    CampaignStatistics,
    ExperimentRecord,
    OutcomeClass,
    classify_tem_report,
)
from .types import MEMORY_TARGETS, REGISTER_TARGETS, Fault, FaultTarget, FaultType

#: Copy step budget as a multiple of the golden run's step count.
BUDGET_STEP_FACTOR = 2.0


@dataclasses.dataclass
class TemWorkload:
    """Everything the harness needs to run one task under TEM.

    Attributes
    ----------
    executable_factory:
        Builds a fresh :class:`MachineExecutable` (with its own machine).
        A harness calls it once and keeps the result as its pristine
        template; the golden run and every trial run on clones of it.
    inputs:
        The job's input tuple (written before every copy).
    signature_checkpoints:
        When given, a :class:`SignatureMonitor` verifies each completed
        copy's accumulated control-flow signature.
    max_copies:
        TEM copy cap for one job (the reserved recovery slack).
    deadline_factor:
        The job's deadline expressed in multiples of the golden run's step
        count.  The fault-tolerant schedule reserves slack for one recovery
        (2 copies + 1 recovery + margin = ~3.3x); a recovery copy is
        started only if it can still finish inside this budget — this is
        the run-time deadline check of Section 2.5, and it is what turns
        late or time-consuming errors into omission failures (P_OM).
    """

    executable_factory: Callable[[], MachineExecutable]
    inputs: Result = ()
    signature_checkpoints: Optional[Sequence[int]] = None
    max_copies: int = 4
    deadline_factor: float = 3.3


class TemInjectionHarness:
    """Runs single-fault experiments for one workload."""

    def __init__(self, workload: TemWorkload) -> None:
        self.workload = workload
        self.template = workload.executable_factory()
        golden_exec = self.template.clone()
        plan = golden_exec.plan_copy(workload.inputs, 0)
        if plan.result is None or plan.detected_error is not None:
            raise ConfigurationError(
                "workload is not fault-free: golden run did not complete cleanly"
            )
        self.golden: Result = plan.result
        self.golden_steps = max(1, golden_exec.machine.instruction_count)
        self.budget_steps = int(self.golden_steps * BUDGET_STEP_FACTOR) + 50
        self.deadline_steps = int(self.golden_steps * workload.deadline_factor) + 50
        self.liveness, self.golden_copies, self._checkpoints = self._trace_golden()

    # ------------------------------------------------------------------
    def run_experiment(
        self, fault: Fault, miss_window: Optional[MKWindow] = None
    ) -> ExperimentRecord:
        """Inject one fault into one TEM job and classify the outcome.

        When *miss_window* is given the job runs under the weakly-hard
        recovery policy: a recovery copy is skipped (controlled miss,
        tagged ``mk_budget_miss``) while the (m,k) window has budget, and
        the job's hit/miss is recorded into the window afterwards.  A
        ``None`` window — or the degenerate (0, 1) constraint — leaves the
        hard-deadline path untouched.
        """
        with obs_metrics.span("injection.experiment"):
            stepper = self._stepper(fault)
            ecc_stats = stepper.executable.machine.memory.ecc_stats
            corrections_before = ecc_stats.corrections
            report = self._run_job(stepper, miss_window)
        return self._record(fault, report, ecc_stats.corrections - corrections_before)

    def is_dead(self, fault: Fault) -> bool:
        """True when *fault* cannot change the job: its location is, from
        its arrival on, written before it is read or never accessed by the
        fault-free job (:meth:`LivenessTable.is_dead`)."""
        return self.liveness is not None and self.liveness.is_dead(fault)

    def settle(
        self, fault: Fault, miss_window: Optional[MKWindow] = None
    ) -> ExperimentRecord:
        """The record of a fault :meth:`is_dead` calls dead, without the CPU.

        The golden copies are replayed through a real TEM state machine
        with this harness's deadline check and *miss_window*, so the record
        and the metrics it records are exactly what :meth:`run_experiment`
        gives for that fault.  Without a window the outcome and metrics are
        the same whatever the fault: they are made once per harness
        (:meth:`settled_reply`) and merged inside this trial's span.
        """
        if miss_window is not None:
            return self._replay(fault, None, miss_window)
        record, _ = self.settled_reply(fault)
        registry = obs_metrics.active()
        with registry.span("injection.experiment"):
            registry.merge_snapshot(self._settled[2])
        return record

    def settled_reply(self, fault: Fault) -> "Tuple[ExperimentRecord, dict]":
        """A windowless :meth:`settle` as a batch reply: the record and the
        metrics snapshot one would capture, the same snapshot object for
        every fault."""
        record, snapshot, _ = self._settled
        return ExperimentRecord(
            record.outcome, fault.describe(), record.detection_mechanisms, record.copies_run
        ), snapshot

    @functools.cached_property
    def _settled(self) -> "Tuple[ExperimentRecord, dict, dict]":
        """A windowless settle's record, captured snapshot and counters."""
        assert self.liveness is not None
        with obs_metrics.capture() as registry:
            record = self._replay(_NO_FAULT, None, None)
        snapshot = registry.snapshot()
        return record, snapshot, {"counters": snapshot["counters"]}

    def settle_or_run(
        self, fault: Fault, miss_window: Optional[MKWindow] = None
    ) -> ExperimentRecord:
        """One trial: :meth:`settle` a dead fault, replay the golden trace
        around a live transient flip, and :meth:`run_experiment` anything
        else (permanent, step-less or abstract faults, or a harness with no
        trace)."""
        if self.is_dead(fault):
            return self.settle(fault, miss_window)
        if (
            self._checkpoints is None
            or fault.fault_type is not FaultType.TRANSIENT
            or fault.at_step is None
            or not (fault.target in REGISTER_TARGETS or fault.target in MEMORY_TARGETS)
        ):
            return self.run_experiment(fault, miss_window)
        return self._replay(fault, fault, miss_window)

    def run_campaign(self, faults: Iterable[Fault]) -> CampaignStatistics:
        """Run one experiment per fault and aggregate statistics."""
        stats = CampaignStatistics()
        for fault in faults:
            stats.add(self.run_experiment(fault))
        return stats

    def run_single_experiment(self, fault: Fault) -> ExperimentRecord:
        """Ablation path: one *single* execution — no TEM redundancy.

        Models a node that relies on hardware/software EDMs alone.  A
        detected error silences the node (fail-silent reaction); an
        undetected wrong result escapes — which is exactly the coverage
        contribution TEM's comparison adds, quantified by comparing this
        against :meth:`run_experiment`.
        """
        obs_metrics.inc("injection.single_experiments")
        stepper = self._stepper(fault)
        result, mechanism = stepper.execute_copy(0)
        if mechanism is not None:
            return ExperimentRecord(
                outcome=OutcomeClass.FAIL_SILENT,
                fault_description=fault.describe(),
                detection_mechanisms=(mechanism,),
                copies_run=1,
            )
        outcome = (
            OutcomeClass.NO_EFFECT
            if tuple(result) == tuple(self.golden)
            else OutcomeClass.UNDETECTED_WRONG
        )
        return ExperimentRecord(
            outcome=outcome,
            fault_description=fault.describe(),
            copies_run=1,
        )

    def run_job_sequence(
        self,
        fault: Fault,
        jobs: int,
        suspector: Optional[PermanentFaultSuspector] = None,
        miss_window: Optional[MKWindow] = None,
    ) -> "tuple[List[TemOutcome], bool]":
        """Run several successive jobs with the same (e.g. permanent) fault.

        The fault is (re-)applied from ``at_step`` of the *first* job and,
        for permanent faults, re-asserted every instruction of every job.
        Returns the per-job TEM outcomes and whether the permanent-fault
        suspector tripped (node shutdown for off-line diagnosis).

        One machine (a template clone) serves the whole sequence, so
        memory state (including latent corruption) carries across jobs, as
        on real hardware.  With *miss_window* the sliding (m,k) budget gates every
        job's recovery and accumulates the sequence's hits/misses.
        """
        if suspector is None:
            suspector = PermanentFaultSuspector()
        outcomes: List[TemOutcome] = []
        stepper = self._stepper(fault)
        for _job in range(jobs):
            stepper.reset_job()
            report = self._run_job(stepper, miss_window)
            outcomes.append(report.outcome)
            tripped = suspector.record_job(
                report.errors_detected > 0 or report.outcome is not TemOutcome.OK
            )
            if tripped:
                return outcomes, True
        return outcomes, False

    # ------------------------------------------------------------------
    def _monitor(self) -> Optional[SignatureMonitor]:
        if self.workload.signature_checkpoints is None:
            return None
        return SignatureMonitor(self.workload.signature_checkpoints)

    def _stepper(
        self, fault: Fault, source: Optional[MachineExecutable] = None
    ) -> "_SteppedTem":
        """A copy executor for *fault* on a fresh clone of *source* (the
        template by default)."""
        executable = (source or self.template).clone()
        return _SteppedTem(
            executable, self.workload.inputs, MachineFaultInjector(executable.machine),
            self._monitor(), self.budget_steps, fault,
        )

    def _replay(
        self, fault: Fault, injected: Optional[Fault], miss_window: Optional[MKWindow]
    ) -> ExperimentRecord:
        """*fault*'s record from a :class:`_GoldenJob` injecting *injected*
        (``None``: a dead fault, no copy simulated)."""
        with obs_metrics.span("injection.experiment"):
            job = _GoldenJob(self, injected)
            report = self._run_job(job, miss_window)
        return self._record(fault, report, job.ecc_corrections)

    def _run_job(
        self, job: "_SteppedTem | _GoldenJob", miss_window: Optional[MKWindow]
    ) -> TemReport:
        """One TEM job over *job*'s copies; the outcome goes into the window."""
        report = run_tem_direct(
            job.execute_copy,
            can_run_another_copy=job.can_run_another_copy(
                self.deadline_steps, self.golden_steps
            ),
            max_copies=self.workload.max_copies,
            accept_miss=miss_window.can_accept_miss if miss_window is not None else None,
        )
        if miss_window is not None:
            miss_window.record(report.outcome is TemOutcome.OMISSION)
        return report

    def _record(
        self, fault: Fault, report: TemReport, ecc_corrections: int
    ) -> ExperimentRecord:
        obs_metrics.inc("injection.experiments")
        mechanisms = tuple(report.detection_mechanisms)
        if ecc_corrections > 0:
            mechanisms = mechanisms + ("ecc_correct",)
        return ExperimentRecord(
            outcome=classify_tem_report(report, self.golden),
            fault_description=fault.describe(),
            detection_mechanisms=mechanisms,
            copies_run=report.copies_run,
        )

    def _trace_golden(self) -> Tuple[
        Optional[LivenessTable], Tuple[GoldenCopy, ...], Optional[List[MachineExecutable]]
    ]:
        """Run the golden job once on a logged, single-stepped clone.

        The fault-free TEM job runs first, then the remaining copies up to
        ``max_copies`` run back to back on the same machine, because a
        faulty job may need them; all of them are logged into the def/use
        table, whose dead-fault rule stops at the end of the TEM job.
        Returns the table, every copy's :class:`GoldenCopy` and a
        checkpoint before every golden step (index = global step).  No
        trace when the template carries latent ECC errors: the fault-free
        job's own ECC corrections would then be part of every record.
        """
        if self.template.machine.memory.error_word_count():
            return None, (), None
        stepper = self._stepper(_NO_FAULT)
        executable = stepper.executable
        memory = executable.machine.memory
        log = AccessLog()
        copies: List[tuple] = []  # reply, start, end, memory words at the end
        checkpoints: List[MachineExecutable] = []

        def checkpoint() -> None:
            twin = executable.clone()
            del twin.machine.run  # the clone copied the single-stepping stand-in
            checkpoints.append(twin)

        def execute_copy(copy_index: int) -> "tuple[Optional[Result], Optional[str]]":
            start = stepper.global_step
            reply = stepper.execute_copy(copy_index)
            copies.append((reply, start, stepper.global_step, dict(memory._clean)))
            return reply

        with log.attached(executable.machine, checkpoint), obs_metrics.capture():
            run_tem_direct(
                execute_copy,
                can_run_another_copy=stepper.can_run_another_copy(
                    self.deadline_steps, self.golden_steps
                ),
                max_copies=self.workload.max_copies,
            )
            horizon = stepper.global_step
            for copy_index in range(len(copies), self.workload.max_copies):
                execute_copy(copy_index)
        liveness = log.table(memory.size_words, horizon)
        golden_copies = tuple(
            GoldenCopy(reply, start, end, {
                address: clean.get(address, 0) for address in liveness.live_words(end)
            })
            for reply, start, end, clean in copies
        )
        return liveness, golden_copies, checkpoints


class GoldenCopy(NamedTuple):
    """One copy of the golden run: its ``(result, mechanism)`` reply, the
    global steps at its start and end, and the value at its end of every
    memory word live there (:meth:`LivenessTable.live_words`)."""

    reply: "Tuple[Optional[Result], Optional[str]]"
    start: int
    end: int
    live: Dict[int, int]

    def reconverged(self, memory: Memory) -> bool:
        """True when *memory*, after a faulty run of this copy, agrees with
        the golden memory on every live word, in value and in ECC error
        bits.  The golden run has no error bits (it injects nothing, and a
        template with latent errors gets no trace), so a live word must
        have none."""
        clean, live = memory._clean, self.live
        return live.keys().isdisjoint(memory._error_bits.keys()) and all(
            clean.get(address, 0) == value for address, value in live.items()
        )


class _SteppedTem:
    """Step-accurate copy executor shared by the harness entry points."""

    __slots__ = (
        "executable", "inputs", "injector", "monitor",
        "budget_steps", "fault", "global_step", "job_step_base", "injected",
    )

    def __init__(
        self,
        executable: MachineExecutable,
        inputs: Result,
        injector: MachineFaultInjector,
        monitor: Optional[SignatureMonitor],
        budget_steps: int,
        fault: Fault,
    ) -> None:
        self.executable = executable
        self.inputs = inputs
        self.injector = injector
        self.monitor = monitor
        self.budget_steps = budget_steps
        self.fault = fault
        self.global_step = 0
        self.job_step_base = 0
        self.injected = False

    def reset_job(self) -> None:
        """Start a new job: the deadline budget restarts, memory state and
        the pending/stuck fault carry over."""
        self.job_step_base = self.global_step

    def can_run_another_copy(self, deadline_steps: int, golden_steps: int):
        """The kernel's run-time deadline check, in step currency: a
        recovery copy may start only if a full copy still fits before the
        job's deadline (Section 2.5)."""

        def check() -> bool:
            used = self.global_step - self.job_step_base
            return used + golden_steps <= deadline_steps

        return check

    def execute_copy(self, copy_index: int) -> "tuple[Optional[Result], Optional[str]]":
        executable = self.executable
        machine = executable.machine
        machine.prepare(executable.entry_address)
        if executable.input_count:
            machine.write_words(
                executable.input_base,
                [int(v) for v in self.inputs[: executable.input_count]],
            )
        return self.run_copy(0)

    def run_copy(
        self, steps_this_copy: int
    ) -> "tuple[Optional[Result], Optional[str]]":
        """Run the prepared copy to its end, *steps_this_copy* steps in.

        :meth:`execute_copy` starts a copy at step 0; the batch engine
        continues a lane evicted mid-copy from the step it reached, with
        :attr:`global_step` already advanced to match.
        """
        executable = self.executable
        machine = executable.machine
        if executable.confine_with_mmu:
            machine.mmu.enter_domain(executable.TASK_DOMAIN)
        # The stepping loop below is the hottest code of every injection
        # campaign.  Per-step work is only ever needed at two boundaries —
        # the fault-arrival step and, for active stuck-at faults, the
        # re-assertion after every instruction — so everything between
        # boundaries executes as one Machine.run() chunk (whose internal
        # loop batches the counter bookkeeping).  The budget check, the
        # arrival threshold and the step accounting compare exactly as the
        # original step-by-step expressions did: a chunk never crosses the
        # budget or the arrival step, and a failed instruction advances the
        # global step counter without counting against the copy's budget.
        injector = self.injector
        budget_steps = self.budget_steps
        global_step = self.global_step
        # Fault not yet injected: arrival step, or "never" when already
        # injected / not step-triggered.
        arrival = self.fault.at_step if (
            not self.injected and self.fault.at_step is not None
        ) else None
        try:
            while not machine._halted:
                if steps_this_copy >= budget_steps:
                    return None, "execution_time"
                if arrival is not None and global_step >= arrival:
                    injector.apply(self.fault)
                    self.injected = True
                    arrival = None
                if injector._stuck:
                    # Permanent fault active: single-step so the stuck-at
                    # is re-asserted after every instruction.
                    exception = machine.run(max_steps=1).exception
                    if exception is not None:
                        global_step += 1
                        return None, exception.mechanism
                    injector.reassert_permanent()
                    global_step += 1
                    steps_this_copy += 1
                    continue
                limit = budget_steps - steps_this_copy
                if arrival is not None:
                    limit = min(limit, arrival - global_step)
                result = machine.run(max_steps=limit, stop_on_exception=True)
                if result.exception is not None:
                    global_step += result.steps + 1
                    return None, result.exception.mechanism
                global_step += result.steps
                steps_this_copy += result.steps
        finally:
            self.global_step = global_step
            machine.mmu.enter_kernel()
        if self.monitor is not None:
            try:
                self.monitor.verify_machine(machine)
            except ControlFlowError:
                return None, "control_flow"
        try:
            outputs = machine.read_words(executable.output_base, executable.output_count)
        except HardwareException as exc:
            return None, exc.mechanism
        return tuple(outputs), None


#: The fault of the traced fault-free job: no arrival step, so the stepper
#: never injects it.
_NO_FAULT = Fault(FaultType.TRANSIENT, FaultTarget.DATA_REGISTER, register="D0")


class _GoldenJob:
    """One TEM job over the golden trace, simulating only where a fault acts.

    Copies before the fault's arrival return their golden replies.  The
    arrival copy resumes on a clone of the checkpoint at the arrival step
    and runs to its end; it and each later copy run on the CPU until a copy
    ends :meth:`GoldenCopy.reconverged`: the memory agrees with the golden
    one on every word the golden copies after it read before they write
    it.  Every copy after that returns its golden reply and advances the
    global step by its golden length, so the deadline check sees the step
    counts of a simulated trial.  With no fault no copy is simulated.

    The golden run corrects no ECC error (a template with latent errors
    gets no trace), so the simulated machine's correction count is the
    trial's: :attr:`ecc_corrections`.
    """

    __slots__ = (
        "copies", "global_step", "job_step_base", "ecc_corrections",
        "_harness", "_fault", "_arrival", "_stepper",
    )

    can_run_another_copy = _SteppedTem.can_run_another_copy

    def __init__(self, harness: TemInjectionHarness, fault: Optional[Fault]) -> None:
        self.copies = harness.golden_copies
        self.global_step = 0
        self.job_step_base = 0
        self.ecc_corrections = 0
        self._harness = harness
        self._fault = fault
        # A fault due before the first step arrives at step 0.
        self._arrival = None if fault is None else max(fault.at_step, 0)
        self._stepper: Optional[_SteppedTem] = None

    def execute_copy(self, copy_index: int) -> "tuple[Optional[Result], Optional[str]]":
        golden = self.copies[copy_index]
        stepper, arrival = self._stepper, self._arrival
        if stepper is not None:
            reply = stepper.execute_copy(copy_index)
        elif arrival is None or arrival >= golden.end:
            self.global_step += golden.end - golden.start
            return golden.reply
        else:
            harness = self._harness
            stepper = self._stepper = harness._stepper(
                self._fault, harness._checkpoints[arrival]
            )
            stepper.global_step = arrival
            reply = stepper.run_copy(arrival - golden.start)
            self._arrival = None
        self.global_step = stepper.global_step
        memory = stepper.executable.machine.memory
        self.ecc_corrections = memory.ecc_stats.corrections
        if golden.reconverged(memory):
            self._stepper = None
        return reply
