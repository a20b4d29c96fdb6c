"""Batched TEM fault-injection execution — K experiments in lockstep.

The scalar campaign path (:mod:`repro.faults.campaign`) runs one machine
per experiment.  All E5-style experiments execute the *same* program on
the *same* inputs and differ only in the injected fault, so K of them can
advance as lanes of one :class:`repro.cpu.batch.BatchMachine`: a shared
fetch/decode per step, vectorized execute across the ``(K, registers)``
and ``(K, footprint)`` memory arrays, and per-lane eviction to a scalar
:class:`~repro.cpu.machine.Machine` the moment a lane's control flow
diverges from the cohort.

Equivalence contract (enforced by ``tests/faults/test_batch_campaign.py``
and the batch differential/property gates): for every fault, the
:class:`ExperimentRecord` — outcome class, detection mechanisms, copies
run — and the per-experiment metrics stable view are **bit-identical** to
:meth:`TemInjectionHarness.run_experiment`.  The TEM protocol itself is
not reimplemented.  A lane whose two copies both return the golden result
(and whose second copy passes the deadline check) settles to the report
and metrics a real :class:`~repro.core.tem.TemStateMachine` produced for
two golden copies, derived once per executor.  Any other lane is demoted
at its first off-path event: a fresh state machine replays its history
and then drives the same next_action/copy_completed/copy_aborted sequence
as the scalar harness.  Only copy *execution* is vectorized.

Faults that cannot ride the lockstep path (permanent stuck-ats, which
need per-step re-assertion, and abstract non-machine targets) fall back
to the scalar harness per lane — same records, no special cases upstream.
"""

from __future__ import annotations

import copy
import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.tem import TemAction, TemOutcome, TemReport, TemStateMachine
from ..cpu.batch import BatchMachine
from ..cpu.exceptions import HardwareException
from ..errors import ConfigurationError, ReproError
from ..kernel.task import MKWindow
from ..obs import metrics as obs_metrics
from ..obs.metrics import MetricsRegistry, Snapshot
from .campaign import TemInjectionHarness, _SteppedTem
from .injector import MachineFaultInjector
from .outcomes import CampaignStatistics, ExperimentRecord, classify_tem_report
from .types import MEMORY_TARGETS, REGISTER_TARGETS, Fault, FaultType

#: A batch trial's reply: the classified record plus the per-experiment
#: metrics snapshot (``None`` when the experiment recorded nothing).
BatchReply = Tuple[ExperimentRecord, Optional[dict]]

#: One copy's outcome: ``(result, None)`` or ``(None, EDM mechanism)``.
_CopyReply = Tuple[Optional[tuple], Optional[str]]


def batchable(fault: Fault) -> bool:
    """True when *fault* can run on the lockstep path.

    Transient register/memory flips are plain per-lane perturbations of
    the batch arrays.  Permanent faults need their stuck-at re-asserted
    after every instruction (a per-lane step granularity the cohort does
    not have), and abstract targets never touch the machine at all — both
    run the scalar harness instead.
    """
    return fault.fault_type is FaultType.TRANSIENT and (
        fault.target in REGISTER_TARGETS or fault.target in MEMORY_TARGETS
    )


class BatchTemExecutor:
    """Runs TEM injection experiments *batch* lanes at a time.

    Built once per worker/shard (mirroring the scalar harness cache): the
    harness's pristine template executable supplies the ROM image, MMU
    regions and machine configuration broadcast into a fresh
    :class:`BatchMachine` per chunk.
    """

    def __init__(self, harness: TemInjectionHarness, batch: int) -> None:
        if batch <= 0:
            raise ConfigurationError("batch size must be >= 1")
        self.harness = harness
        self.batch = int(batch)
        self.template = harness.template
        monitor = harness._monitor()
        self._signature = None if monitor is None else monitor.expected_signature
        self._clean = self._clean_job()
        self._on_path = (tuple(harness.golden), None)

    def _clean_job(self) -> Optional[Tuple[TemReport, Snapshot]]:
        """The report and metrics of a job whose two copies return the
        golden result: a real state machine driven under capture, so every
        fast-path lane settles to exactly what ``core.tem`` records.

        ``None`` when such a job does not deliver (``max_copies`` < 2):
        then no lane takes the fast path.
        """
        registry = MetricsRegistry()
        with obs_metrics.capture(registry):
            tem = TemStateMachine(lambda: True, max_copies=self.harness.workload.max_copies)
            while tem.next_action() is TemAction.RUN_COPY:
                tem.copy_completed(self.harness.golden)
            obs_metrics.inc("injection.experiments")
        return (tem.report, registry.snapshot()) if tem.report.outcome is TemOutcome.OK else None

    # ------------------------------------------------------------------
    def run_experiments(
        self,
        faults: Sequence[Fault],
        miss_windows: Optional[Sequence[Optional[MKWindow]]] = None,
    ) -> List[BatchReply]:
        """One reply per fault, in fault order.

        *miss_windows*, when given, pairs each fault with the weakly-hard
        (m,k) window of its trial (``None`` entries run hard-deadline).
        Each window must be private to its fault — lanes finish in round
        order, so a window shared across faults would observe a different
        interleaving than the scalar path.
        """
        faults = list(faults)
        if miss_windows is not None and len(miss_windows) != len(faults):
            raise ConfigurationError(
                "miss_windows must have one entry per fault"
            )
        replies: List[BatchReply] = []
        for start in range(0, len(faults), self.batch):
            chunk = faults[start:start + self.batch]
            windows = (
                list(miss_windows[start:start + self.batch])
                if miss_windows is not None
                else None
            )
            replies.extend(self._run_chunk(chunk, windows))
        return replies

    def run_campaign(self, faults: Sequence[Fault]) -> CampaignStatistics:
        """Aggregate statistics over *faults* (scalar-campaign shaped)."""
        stats = CampaignStatistics()
        for record, _snapshot in self.run_experiments(faults):
            stats.add(record)
        return stats

    # ------------------------------------------------------------------
    def _run_chunk(
        self,
        faults: List[Fault],
        windows: Optional[List[Optional[MKWindow]]] = None,
    ) -> List[BatchReply]:
        k = len(faults)
        harness = self.harness
        replies: List[Optional[BatchReply]] = [None] * k

        lane_of = []
        for i in range(k):
            if batchable(faults[i]):
                lane_of.append(i)
                continue
            # Scalar fallback lane: the unmodified harness path, captured
            # into this trial's registry exactly like a supervisor trial.
            window = windows[i] if windows is not None else None
            with obs_metrics.capture() as registry:
                record = harness.run_experiment(faults[i], miss_window=window)
            # snapshot() omits empty kinds, so {} means "recorded nothing".
            replies[i] = (record, registry.snapshot() or None)

        if lane_of:
            elapsed = obs_metrics.stopwatch()
            settled = self._run_lockstep_job(
                [faults[i] for i in lane_of],
                [windows[i] for i in lane_of] if windows is not None else None,
            )
            # Per-lane time is not observable in lockstep: every lane gets
            # an even share of the job, as the supervisor splits a chunk.
            share = elapsed() / len(lane_of)
            # Fast-path lanes (no registry) share one snapshot object, which
            # the supervisor's merge folds once, scaled.
            fast = MetricsRegistry()
            fast.merge_snapshot(self._clean[1] if self._clean else None)
            fast.observe_duration("injection.experiment", share)
            clean = fast.snapshot()
            for i, (record, registry) in zip(lane_of, settled):
                if registry is not None:
                    registry.observe_duration("injection.experiment", share)
                replies[i] = (record, clean if registry is None else registry.snapshot())
        return replies  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_lockstep_job(
        self,
        faults: List[Fault],
        windows: Optional[List[Optional[MKWindow]]] = None,
    ) -> List[Tuple[ExperimentRecord, Optional[MetricsRegistry]]]:
        """Drive one TEM job per lane, copies executed in lockstep rounds;
        each lane's record and registry, in lane order (none for a lane
        settled on the fast path: its metrics are :meth:`_clean_job`'s)."""
        n = len(faults)
        harness = self.harness
        bm = self._make_batch(n)
        lane_global = [0] * n
        pending: List[Optional[int]] = [fault.at_step for fault in faults]
        steppers: List[Optional[_SteppedTem]] = [None] * n
        # A fast lane has neither state machine nor registry; gated_at is
        # its copy-1 end step once copy 2 passed the deadline check.
        tems: List[Optional[TemStateMachine]] = [None] * n
        regs: List[Optional[MetricsRegistry]] = [None] * n
        gated_at: List[Optional[int]] = [None] * n
        reports: List[Optional[TemReport]] = [None] * n
        replies: Dict[int, _CopyReply] = {}
        readopted = [False] * n
        live = list(range(n))
        # The round loop flips the active registry once per lane per round;
        # push/pop on the resolved stack directly (see capture_stack()).
        stack = obs_metrics.capture_stack()
        run_copy = TemAction.RUN_COPY
        while live:
            participants: List[int] = []
            for lane in live:
                if tems[lane] is None:
                    # Fast lane: settle after two golden copies or start the
                    # next one unasked; demote it at its first off-path copy,
                    # a refused copy 2, or at once if two copies never deliver.
                    reply = replies.get(lane)
                    if reply is None and self._clean is not None:
                        participants.append(lane)
                        continue
                    if reply == self._on_path and gated_at[lane] is not None:
                        del replies[lane]
                        reports[lane] = self._clean[0]  # type: ignore[index]
                        continue
                    if reply == self._on_path and self._fits_another_copy(lane_global, lane):
                        del replies[lane]
                        gated_at[lane] = lane_global[lane]
                        participants.append(lane)
                        continue
                    tems[lane] = self._demote(
                        lane_global, lane, windows, reply is not None, gated_at[lane]
                    )
                    regs[lane] = MetricsRegistry()
                tem = tems[lane]
                # One capture per lane per round: report the previous
                # copy's outcome (if any), ask for the next action and —
                # on the terminal action — record the job's metrics.
                stack.append(regs[lane])
                try:
                    reply = replies.pop(lane, None)
                    if reply is not None:
                        result, mechanism = reply
                        if mechanism is not None:
                            tem.copy_aborted(mechanism)
                        elif result is None:
                            raise ReproError(
                                "batch copy returned neither result nor mechanism"
                            )
                        else:
                            tem.copy_completed(result)
                    if tem.next_action() is run_copy:
                        participants.append(lane)
                    else:
                        reports[lane] = tem.report
                        obs_metrics.inc("injection.experiments")
                finally:
                    stack.pop()
            if not participants:
                break
            live = participants
            cohort = [lane for lane in participants if steppers[lane] is None]
            if cohort:
                replies.update(self._run_copy_lockstep(
                    bm, cohort, faults, pending, lane_global, steppers, readopted,
                ))
            for lane in participants:
                if lane in replies:
                    continue
                # Twice-evicted lane, scalar for good: real copy execution.
                stepper, tem = steppers[lane], tems[lane]
                assert stepper is not None and tem is not None
                stack.append(regs[lane])
                try:
                    result, mechanism = stepper.execute_copy(tem.copies_run - 1)
                finally:
                    stack.pop()
                lane_global[lane] = stepper.global_step
                if stepper.injected:
                    pending[lane] = None
                replies[lane] = (result, mechanism)

        out: List[Tuple[ExperimentRecord, Optional[MetricsRegistry]]] = []
        for lane in range(n):
            report = reports[lane]
            assert report is not None
            if windows is not None and windows[lane] is not None:
                windows[lane].record(report.outcome is TemOutcome.OMISSION)
            stepper = steppers[lane]
            corrections = (
                stepper.executable.machine.memory.ecc_stats.corrections
                if stepper is not None
                else int(bm.ecc_corrections[lane])
            )
            mechanisms = tuple(report.detection_mechanisms)
            if corrections > 0:
                mechanisms = mechanisms + ("ecc_correct",)
            out.append((ExperimentRecord(
                outcome=classify_tem_report(report, harness.golden),
                fault_description=faults[lane].describe(),
                detection_mechanisms=mechanisms,
                copies_run=report.copies_run,
            ), regs[lane]))
        return out

    def _demote(
        self,
        lane_global: List[int],
        lane: int,
        windows: Optional[List[Optional[MKWindow]]],
        started: bool,
        gated_at: Optional[int],
    ) -> TemStateMachine:
        """The state machine of a lane leaving the fast path, replaying its
        history: copy 1's start (if *started*) and, once copy 2 was gated,
        copy 1's golden result and copy 2's start, the deadline checked at
        copy 1's end step.  The round loop reports the pending reply.  The
        lane's (m,k) window is constant for the whole job (recorded only at
        the end), so round order cannot change what accept_miss returns."""
        window = windows[lane] if windows is not None else None
        tem = TemStateMachine(
            functools.partial(self._fits_another_copy, lane_global, lane),
            max_copies=self.harness.workload.max_copies,
            accept_miss=window.can_accept_miss if window is not None else None,
        )
        if started:
            tem.next_action()
        if gated_at is not None:
            tem.copy_completed(self.harness.golden)
            now, lane_global[lane] = lane_global[lane], gated_at
            tem.next_action()
            lane_global[lane] = now
        return tem

    # ------------------------------------------------------------------
    def _make_batch(self, lanes: int) -> BatchMachine:
        template = self.template
        machine = template.machine
        bm = BatchMachine(
            lanes,
            memory_words=machine.memory.size_words,
            rom_words=machine.memory.rom_limit,
            ecc_enabled=machine.memory.ecc_enabled,
            mmu_enabled=machine.mmu.enabled,
            cycle_ticks=machine.cycle_ticks,
        )
        # Only the words the template wrote: lane memory is sized to them.
        for address, word in machine.memory._clean.items():
            bm.load_rom(address, [word])
        if machine.memory._rom_sealed:
            bm.seal_rom()
        for region in machine.mmu._regions:
            bm.add_region(region)
        return bm

    def _fits_another_copy(self, lane_global: List[int], lane: int) -> bool:
        """Deadline check: one more copy fits (one job per experiment: base 0)."""
        harness = self.harness
        return lane_global[lane] + harness.golden_steps <= harness.deadline_steps

    @staticmethod
    def _inject(bm: BatchMachine, lane: int, fault: Fault) -> None:
        if fault.target in REGISTER_TARGETS:
            bm.flip_register(lane, fault.register, fault.bit)
        elif fault.target in MEMORY_TARGETS:
            bm.flip_memory_bit(lane, fault.address, fault.bit)
        else:  # pragma: no cover - filtered out by batchable()
            raise ConfigurationError(f"fault target {fault.target} not batchable")

    # ------------------------------------------------------------------
    def _run_copy_lockstep(
        self,
        bm: BatchMachine,
        cohort: List[int],
        faults: List[Fault],
        pending: List[Optional[int]],
        lane_global: List[int],
        steppers: List[Optional[_SteppedTem]],
        readopted: List[bool],
    ) -> Dict[int, _CopyReply]:
        """One TEM copy for every cohort lane, stepped in lockstep.

        Mirrors :meth:`_SteppedTem.execute_copy` boundary for boundary:
        the budget check, then the fault-arrival injection, then one
        ``run()`` chunk that never crosses the budget or an arrival step.
        A failed instruction advances a lane's global step counter without
        counting against the copy budget, exactly as in the scalar loop.
        """
        harness = self.harness
        template = self.template
        budget = harness.budget_steps
        bm.prepare(template.entry_address, lanes=cohort)
        if template.input_count:
            bm.write_words(
                template.input_base,
                [int(v) for v in harness.workload.inputs[: template.input_count]],
                lanes=cohort,
            )
        if template.confine_with_mmu:
            bm.mmu.enter_domain(template.TASK_DOMAIN)
        evicted: List[int] = []
        # Arrival steps are fixed for the whole copy (a lane's global-step
        # base only advances between copies), so sort them once and sweep
        # a cursor instead of rescanning the cohort before every chunk.
        schedule = sorted(
            (pending[lane] - lane_global[lane], lane)  # type: ignore[operator]
            for lane in cohort
            if pending[lane] is not None
        )
        cursor = 0
        try:
            steps = 0
            while steps < budget:
                while cursor < len(schedule) and schedule[cursor][0] <= steps:
                    lane = schedule[cursor][1]
                    cursor += 1
                    # A lane that already halted/raised keeps its pending
                    # fault for the next copy, exactly like the scalar
                    # loop (which never reaches the injection check once
                    # the copy ended).
                    if bm.active[lane]:
                        self._inject(bm, lane, faults[lane])
                        pending[lane] = None
                limit = budget - steps
                if cursor < len(schedule):
                    limit = min(limit, schedule[cursor][0] - steps)
                stepped = bm.run(limit)
                steps += stepped
                evicted.extend(bm.pop_evicted())
                if stepped < limit:
                    break  # no lane left active
        finally:
            bm.mmu.enter_kernel()

        out: Dict[int, _CopyReply] = {}
        evicted_set = set(evicted)
        halted_ok: List[int] = []
        for lane in cohort:
            if lane in evicted_set:
                continue
            copy_steps = int(bm.copy_steps[lane])
            exc = bm.exceptions[lane]
            if exc is not None:
                # The failing instruction advances the global counter by
                # one without retiring (scalar: ``result.steps + 1``).
                lane_global[lane] += copy_steps + 1
                out[lane] = (None, exc.mechanism)
            elif bm.halted[lane]:
                lane_global[lane] += copy_steps
                halted_ok.append(lane)
            else:
                # Still running when the cohort hit the step budget.
                lane_global[lane] += copy_steps
                out[lane] = (None, "execution_time")
        if halted_ok:
            self._finish_copies_batch(bm, halted_ok, out)
        for lane in evicted:
            out[lane] = self._continue_evicted(
                bm, lane, faults, pending, lane_global, steppers, readopted,
            )
        return out

    def _finish_copies_batch(
        self, bm: BatchMachine, lanes: List[int], out: Dict[int, _CopyReply]
    ) -> None:
        """Post-copy checks of the lanes that halted inside the cohort.

        The signature check is one array compare.  Lanes with no latent ECC
        error bits share one vectorized output read (a clean word block is
        address-bounds-checked once); a lane carrying error bits goes
        through :meth:`BatchMachine.read_words` for the full per-word ECC
        semantics.
        """
        template = self.template
        base, count = template.output_base, template.output_count
        idx = np.asarray(lanes, dtype=np.intp)
        ok = np.ones(len(lanes), dtype=bool)
        if self._signature is not None:
            ok = bm.signature[idx] == self._signature
        for lane in idx[~ok].tolist():
            out[lane] = (None, "control_flow")
        in_bounds = 0 <= base <= base + count <= bm.memory_words
        clean = ok & ~bm._lane_has_err[idx] & in_bounds
        for lane in idx[ok & ~clean].tolist():
            try:
                outputs = bm.read_words(lane, base, count)
            except HardwareException as exc:
                out[lane] = (None, exc.mechanism)
            else:
                out[lane] = (tuple(outputs), None)
        if clean.any():
            lanes, block = idx[clean], bm.peek_words(idx[clean], base, count)
            golden = (block == self._on_path[0]).all(axis=1)
            # Golden lanes share one reply object: no per-lane allocations.
            out.update(dict.fromkeys(lanes[golden].tolist(), self._on_path))
            for lane, words in zip(lanes[~golden].tolist(), block[~golden].tolist()):
                out[lane] = (tuple(words), None)

    def _continue_evicted(
        self,
        bm: BatchMachine,
        lane: int,
        faults: List[Fault],
        pending: List[Optional[int]],
        lane_global: List[int],
        steppers: List[Optional[_SteppedTem]],
        readopted: List[bool],
    ) -> _CopyReply:
        """Materialise an evicted lane and finish its interrupted copy.

        The lane's scalar machine continues from the exact pre-instruction
        state (the diverging instruction was never executed in the batch),
        so the remainder is :meth:`_SteppedTem.run_copy` from the step the
        lane reached.

        Afterwards the lane is folded back into the batch (``adopt``) so
        its next copy rejoins lockstep — a register-fault divergence is
        gone once the copy re-prepares.  A lane that diverges *again*
        carries latent damage (corrupted code memory, uncorrected data)
        that would evict it every copy, so the second eviction pins it to
        the scalar :class:`_SteppedTem` for the rest of the job.
        """
        harness = self.harness
        # The template's attributes over the lane's mid-job machine (latent
        # memory corruption, ECC error bits and counters must survive).
        executable = copy.copy(self.template)
        executable.machine = machine = bm.to_machine(lane)
        stepper = _SteppedTem(
            executable, harness.workload.inputs, MachineFaultInjector(machine),
            harness._monitor(), harness.budget_steps, faults[lane],
        )
        steps_this_copy = int(bm.copy_steps[lane])
        stepper.injected = pending[lane] is None
        stepper.global_step = lane_global[lane] + steps_this_copy
        reply = stepper.run_copy(steps_this_copy)
        lane_global[lane] = stepper.global_step
        if stepper.injected:
            pending[lane] = None
        if readopted[lane]:
            steppers[lane] = stepper
        else:
            readopted[lane] = True
            bm.adopt(lane, machine)
        return reply
