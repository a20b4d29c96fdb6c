"""Fixed-priority preemptive M-core scheduler with TEM support.

This is the heart of the simulated real-time kernel (Sections 2.5 and 2.8,
extended to multicore nodes per ROADMAP item 4).  Responsibilities:

* periodic job release for every registered task;
* fixed-priority preemptive dispatching over M cores (lower priority
  number wins) under a partitioned or global placement policy
  (:class:`~repro.kernel.cores.PlacementPolicy`); with M = 1 both reduce
  bit-identically to the paper's single-processor kernel;
* playing execution *copies* out over simulated time, including budget
  timers (execution-time monitoring) and EDM-triggered aborts;
* driving a :class:`~repro.core.tem.TemStateMachine` per critical job —
  double execution, comparison, recovery copies, majority vote, deadline
  checks, omission enforcement — or, for tasks marked
  :attr:`~repro.kernel.task.TemMode.SPATIAL`, a
  :class:`~repro.core.tem.SpatialTem` coordinator racing concurrent copies
  on distinct cores;
* arbitrating shared-resource critical sections through a
  :class:`~repro.kernel.resources.ResourceManager` (MSRP-style spin lock
  or LEFT-RS-style lock-free retries), including the kernel-side cleanup
  when a fault aborts a copy *inside* a section;
* enforcing weakly-hard (m,k) miss budgets: the scheduler owns one
  :class:`~repro.kernel.task.MKWindow` per weakly-hard task and threads its ``accept_miss`` hook into the TEM machinery;
* shutting down non-critical tasks on their first detected error
  (Section 2.2, strategy 2);
* escalating kernel-level errors to the node (strategy 3: fail-silent).

Fault effects (:class:`~repro.cpu.profiles.FaultEffect`) are applied through
:meth:`Scheduler.apply_fault_effect`, which the node layer calls when the
fault injector strikes the host processor (optionally naming the struck
core on a multicore node).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.tem import SpatialTem, TemAction, TemOutcome, TemStateMachine
from ..cpu.profiles import FaultEffect
from ..errors import ConfigurationError, SchedulingError
from ..sim import PRIORITY_KERNEL, PRIORITY_OBSERVER, EventHandle, Simulator, TraceRecorder
from .budget import DEFAULT_BUDGET_FACTOR, ExecutionBudget, budget_for_wcet
from .cores import CoreSet, PlacementPolicy
from .resources import ResourceManager, ResourceProtocol
from .task import (
    CopyPlan,
    Criticality,
    Executable,
    MKWindow,
    Result,
    TaskSpec,
    TemMode,
    validate_task_set,
)


@dataclasses.dataclass(frozen=True)
class KernelConfig:
    """Tunable kernel overheads and policies.

    Attributes
    ----------
    budget_factor:
        Budget-timer margin over the WCET (Section 2.4).
    comparison_cost:
        Kernel time added to every copy after the first for the result
        comparison / vote bookkeeping.
    tem_max_copies:
        Hard per-job cap on executions (bounds reserved recovery slack).
    context_switch_cost:
        Added once at every dispatch/resume.
    fail_silent_mode:
        When True the kernel models a conventional *fail-silent* node
        (the paper's FS baseline): detection machinery runs unchanged —
        double execution, comparison, EDMs — but the reaction to ANY
        detected error is to silence the node instead of recovering.
    cores:
        Number of identical cores on this node (M).  The default of 1 is
        the paper's single-processor node, reproduced bit for bit.
    placement:
        Partitioned (per-task home cores) or global (one shared ready
        queue, migration allowed) fixed-priority scheduling.
    resource_protocol:
        Arbitration for shared-resource critical sections: MSRP-style
        spin lock or LEFT-RS-style lock-free retry loop.
    cs_fault_cleanup_cost:
        Extra ticks the kernel keeps a *lock* held while cleaning up
        after a fault aborted the holder mid-section (the blocking-time
        blowup the lock-free protocol avoids by construction).
    """

    budget_factor: float = DEFAULT_BUDGET_FACTOR
    comparison_cost: int = 0
    tem_max_copies: int = TemStateMachine.DEFAULT_MAX_COPIES
    context_switch_cost: int = 0
    fail_silent_mode: bool = False
    cores: int = 1
    placement: PlacementPolicy = PlacementPolicy.PARTITIONED
    resource_protocol: ResourceProtocol = ResourceProtocol.LOCK
    cs_fault_cleanup_cost: int = 0

    def __post_init__(self) -> None:
        if self.comparison_cost < 0 or self.context_switch_cost < 0:
            raise ConfigurationError("kernel overheads must be non-negative")
        if self.tem_max_copies < 2:
            raise ConfigurationError("TEM needs at least two copies per job")
        if self.cores < 1:
            raise ConfigurationError("a node needs at least one core")
        if self.cs_fault_cleanup_cost < 0:
            raise ConfigurationError("cleanup cost must be non-negative")


class JobState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


@dataclasses.dataclass
class JobStats:
    """Per-scheduler counters (coverage/outcome accounting)."""

    released: int = 0
    delivered_ok: int = 0
    delivered_masked: int = 0
    omissions: int = 0
    deadline_misses: int = 0
    edm_detections: int = 0
    undetected_wrong_outputs: int = 0
    kernel_errors: int = 0
    noncritical_shutdowns: int = 0
    preemptions: int = 0
    #: Global-FP only: jobs resumed on a different core than they last ran.
    migrations: int = 0
    #: Weakly-hard misses the scheduler-owned (m,k) windows could NOT absorb.
    mk_violations: int = 0


@dataclasses.dataclass
class _Section:
    """Runtime state of one critical section within the current copy.

    ``enter_at``/``exit_at`` are *consumed-time* offsets; spins and
    retries stretch them together with the plan duration so that the
    computation inside and after the section keeps its length.
    """

    resource: str
    length: int
    enter_at: int
    exit_at: int
    entered: bool = False
    done: bool = False
    entry_count: int = 0
    retries: int = 0


class Job:
    """One released instance of a task (or one spatial copy of one).

    *number* is the job's sequence number on its scheduler, so job ids
    depend only on the trial, never on what the process ran before.
    """

    def __init__(
        self, task: TaskSpec, release_time: int, inputs: Result, number: int
    ) -> None:
        self.job_id = f"{task.name}#{number}"
        self.task = task
        self.release_time = release_time
        self.absolute_deadline = release_time + task.relative_deadline
        self.inputs = tuple(inputs)
        self.state = JobState.READY
        self.tem: Optional[TemStateMachine] = None
        self.copy_index = 0
        self.plan: Optional[CopyPlan] = None
        self.budget: Optional[ExecutionBudget] = None
        self.consumed = 0
        self.deadline_event: Optional[EventHandle] = None
        self.delivered: Optional[Result] = None
        # --- multicore state ---
        self.core: Optional[int] = None  # core of the last dispatch
        #: Partition the job is dispatched on under partitioned placement
        #: (spatial copies override it).
        self.home_core: int = task.core if task.core is not None else 0
        self.sections: List[_Section] = []
        self.spinning_on: Optional[_Section] = None
        self.holding: List[str] = []
        # --- spatial TEM ---
        self.spatial: Optional["_SpatialState"] = None  # on the logical job
        self.spatial_parent: Optional["Job"] = None  # on each copy
        self.launch_index = 0


@dataclasses.dataclass
class _SpatialState:
    """Book-keeping for one spatially-redundant job (the logical parent)."""

    tem: SpatialTem
    copies: List[Job] = dataclasses.field(default_factory=list)
    next_index: int = 0


@dataclasses.dataclass
class _Running:
    job: Job
    started_at: int
    event: EventHandle
    core: int = 0
    #: Context-switch ticks charged at the head of this segment (zero for
    #: in-place continuations at section boundaries).
    overhead: int = 0


@dataclasses.dataclass
class _TaskEntry:
    spec: TaskSpec
    executable: Executable
    input_provider: Callable[[], Result]
    active: bool = True
    release_event: Optional[EventHandle] = None


def next_boundary(
    plan: CopyPlan, sections: Sequence[_Section], consumed: int, budget_remaining: int
) -> Tuple[int, str]:
    """The running copy's next boundary: ``(ticks of computation, reason)``.

    The candidates are the plan's detected error (``"error"``), the exit
    or entry of the first unfinished section (``"cs_exit"``,
    ``"cs_enter"``), completion (``"complete"``, at least one tick away)
    and budget exhaustion (``"budget"``).  The earliest wins; a tie goes
    to the first in that order.  The scan visits them last to first and
    replaces on ``<=``, so the tie-break is the scan order itself.
    """
    fire_in, reason = budget_remaining, "budget"
    at = plan.duration - consumed
    if at < 1:
        at = 1
    if at <= fire_in:
        fire_in, reason = at, "complete"
    for section in sections:
        if not section.done:
            if section.entered:
                at, kind = section.exit_at - consumed, "cs_exit"
            else:
                at, kind = section.enter_at - consumed, "cs_enter"
            if at < 0:
                at = 0
            if at <= fire_in:
                fire_in, reason = at, kind
            break
    if plan.detected_error is not None and plan.error_at is not None:
        at = plan.error_at - consumed
        if at < 0:
            at = 0
        if at <= fire_in:
            fire_in, reason = at, "error"
    return fire_in, reason


def best_ready(ready: Sequence[Job], core: Optional[int] = None) -> Optional[Job]:
    """The dispatch choice: the most urgent job of *ready* (lowest priority
    number), restricted to the jobs homed on *core* when one is named.
    A tie goes to the job earliest in *ready*."""
    best = None
    for job in ready:
        if core is not None and job.home_core != core:
            continue
        if best is None or job.task.priority < best.task.priority:
            best = job
    return best


def another_copy_fits(job: Job, now: int, comparison_cost: int) -> bool:
    """The TEM deadline check: one more copy of *job* (its WCET plus the
    comparison) started at *now* still completes by its deadline."""
    cost = job.task.wcet + comparison_cost
    return now + cost <= job.absolute_deadline


class Scheduler:
    """The per-node real-time kernel.

    Parameters
    ----------
    sim:
        The discrete-event simulator providing the time base.
    name:
        Node/kernel name used in traces.
    trace:
        Optional shared :class:`TraceRecorder`.
    rng:
        Random generator, or the int seed of one made on first use, used
        only for fault-effect realisation (result corruption patterns).

    Between :meth:`Simulator.run` passes, ``copy.deepcopy((sim, scheduler))``
    is an independent kernel: calendar events are bound methods plus their
    operands, so the copy fires into itself, finishes as the original would
    and leaves the original unchanged.  Plain functions (executables, input
    providers, node-layer ``on_*`` callbacks) are shared, not copied.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "kernel",
        trace: Optional[TraceRecorder] = None,
        rng: "np.random.Generator | int | None" = None,
        config: Optional[KernelConfig] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._rng = rng
        self.config = config if config is not None else KernelConfig()
        self.stats = JobStats()
        self._cores = CoreSet(self.config.cores)
        self.resources = ResourceManager(self.config.resource_protocol)
        self._tasks: Dict[str, _TaskEntry] = {}
        self._ready: List[Job] = []
        self._jobs_created = 0
        self._started = False
        self._silent = False
        self._latent_effects: List[FaultEffect] = []
        self._mk_windows: Dict[str, MKWindow] = {}
        # Node-layer callbacks.
        self.on_deliver: Optional[Callable[[TaskSpec, Job, Result], None]] = None
        self.on_omission: Optional[Callable[[TaskSpec, Job, str], None]] = None
        self.on_kernel_error: Optional[Callable[[str], None]] = None
        self.on_undetected_output: Optional[Callable[[TaskSpec, Job, Result], None]] = None
        self.on_noncritical_shutdown: Optional[Callable[[TaskSpec], None]] = None

    @property
    def rng(self) -> np.random.Generator:
        """The fault-realisation generator (seed 0 when none was given)."""
        if not isinstance(self._rng, np.random.Generator):
            seed = self._rng
            self._rng = np.random.default_rng(0) if seed is None else np.random.default_rng(seed)  # reprolint: disable=SEED001 -- Documented fallback: a Kernel constructed without an explicit generator gets a fixed default stream for standalone use; every campaign path injects a derive_seed-derived RNG.
        return self._rng

    # ------------------------------------------------------------------
    # Task registration / lifecycle
    # ------------------------------------------------------------------
    def add_task(
        self,
        spec: TaskSpec,
        executable: Executable,
        input_provider: Optional[Callable[[], Result]] = None,
    ) -> None:
        """Register a task before :meth:`start`."""
        if self._started:
            raise SchedulingError("cannot add tasks after the kernel started")
        if spec.name in self._tasks:
            raise SchedulingError(f"task {spec.name!r} already registered")
        if (
            spec.core is not None
            and self.config.placement is PlacementPolicy.PARTITIONED
            and spec.core >= self.config.cores
        ):
            raise ConfigurationError(
                f"task {spec.name!r} is pinned to core {spec.core} but the "
                f"node has only {self.config.cores} core(s)"
            )
        # Names are unique already, so only the new priority needs checking;
        # a clash raises the task set's own duplicate-priority error.
        if any(entry.spec.priority == spec.priority for entry in self._tasks.values()):
            validate_task_set([*(entry.spec for entry in self._tasks.values()), spec])
        self._tasks[spec.name] = _TaskEntry(
            spec=spec,
            executable=executable,
            input_provider=input_provider if input_provider is not None else tuple,
        )
        if spec.weakly_hard is not None:
            self._mk_windows[spec.name] = MKWindow(spec.weakly_hard)

    def start(self) -> None:
        """Begin releasing jobs (call once, before running the simulator)."""
        if self._started:
            raise SchedulingError("kernel already started")
        if not self._tasks:
            raise SchedulingError("no tasks registered")
        self._started = True
        for entry in self._tasks.values():
            self._schedule_release(entry, self.sim.now + entry.spec.offset)

    def shutdown(self) -> None:
        """Stop all activity immediately (node becomes silent).

        Cancels pending releases, the running segments and deadline events.
        Used for fail-silent failures and node restarts.
        """
        self._silent = True
        for entry in self._tasks.values():
            if entry.release_event is not None:
                entry.release_event.cancel()
                entry.release_event = None
        for core in range(self._cores.count):
            slot = self._cores.slots[core]
            if slot is not None:
                slot.event.cancel()
                self._cores.slots[core] = None
        for job in self._ready:
            if job.deadline_event is not None:
                job.deadline_event.cancel()
        self._ready.clear()
        self.resources.reset()

    def restart(self) -> None:
        """Re-arm the kernel after a node restart (fresh job streams)."""
        if not self._started:
            raise SchedulingError("kernel was never started")
        self._silent = False
        self._latent_effects.clear()
        for entry in self._tasks.values():
            entry.active = True
            if entry.release_event is None:
                self._schedule_release(entry, self.sim.now)

    @property
    def silent(self) -> bool:
        """True while the node is shut down (fail-silent)."""
        return self._silent

    @property
    def busy(self) -> bool:
        """True if a copy is executing on any core right now."""
        return self._cores.busy

    @property
    def cores(self) -> int:
        """Number of cores on this node."""
        return self._cores.count

    def active_tasks(self) -> List[str]:
        """Names of tasks still scheduled (non-critical ones may shut down)."""
        return [name for name, entry in self._tasks.items() if entry.active]

    # ------------------------------------------------------------------
    # Weakly-hard (m,k) window ownership (ROADMAP item 3 remainder)
    # ------------------------------------------------------------------
    def mk_window(self, name: str) -> Optional[MKWindow]:
        """The scheduler-owned miss window of one weakly-hard task."""
        return self._mk_windows.get(name)

    def _record_mk(self, job: Job, missed: bool) -> None:
        """Feed one terminal job outcome into the task's miss window."""
        if job.spatial_parent is not None:  # copies are not jobs
            return
        window = self._mk_windows.get(job.task.name)
        if window is None:
            return
        if window.record(missed):
            self.stats.mk_violations += 1
            if self.trace.active:
                self.trace.emit(
                    self.sim.now, "kernel.mk_violation", self.name, job=job.job_id
                )

    # ------------------------------------------------------------------
    # Release machinery
    # ------------------------------------------------------------------
    def _schedule_release(self, entry: _TaskEntry, when: int) -> None:
        entry.release_event = self.sim.schedule_at(
            when, self._release, entry,
            priority=PRIORITY_KERNEL, label=(self.name, "release", entry.spec.name),
        )

    def _release(self, entry: _TaskEntry) -> None:
        if self._silent or not entry.active:
            return
        self._schedule_release(entry, self.sim.now + entry.spec.period)
        self._do_release(entry)

    def _do_release(self, entry: _TaskEntry) -> None:
        spec = entry.spec
        job = self._new_job(spec, self.sim.now, tuple(entry.input_provider()))
        self.stats.released += 1
        if self.trace.active:
            self.trace.emit(self.sim.now, "kernel.release", self.name, job=job.job_id)
        if spec.is_critical:
            window = self._mk_windows.get(spec.name)
            accept_miss = window.can_accept_miss if window is not None else None
            if spec.tem_mode is TemMode.SPATIAL and self._cores.count > 1:
                # Spatial redundancy: concurrent copies on distinct cores.
                job.spatial = _SpatialState(
                    tem=SpatialTem(
                        can_run_another_copy=functools.partial(self._deadline_predicate, job),
                        max_copies=self.config.tem_max_copies,
                        accept_miss=accept_miss,
                    )
                )
                job.deadline_event = self.sim.schedule_at(
                    job.absolute_deadline, self._deadline_check, job,
                    priority=PRIORITY_OBSERVER, label=(self.name, "deadline", job.job_id),
                )
                self._spawn_spatial_copies(job)
                self._dispatch()
                return
            job.tem = TemStateMachine(
                can_run_another_copy=functools.partial(self._deadline_predicate, job),
                max_copies=self.config.tem_max_copies,
                accept_miss=accept_miss,
            )
            action = job.tem.next_action()
            if action is not TemAction.RUN_COPY:  # pragma: no cover - cannot happen
                raise SchedulingError("fresh TEM job did not request a copy")
        job.deadline_event = self.sim.schedule_at(
            job.absolute_deadline, self._deadline_check, job,
            priority=PRIORITY_OBSERVER, label=(self.name, "deadline", job.job_id),
        )
        self._ready.append(job)
        self._dispatch()

    def _new_job(self, task: TaskSpec, release_time: int, inputs: Result) -> Job:
        self._jobs_created += 1
        return Job(task, release_time, inputs, self._jobs_created)

    def _deadline_predicate(self, job: Job) -> bool:
        return another_copy_fits(job, self.sim.now, self.config.comparison_cost)

    # ------------------------------------------------------------------
    # Spatial TEM copy management
    # ------------------------------------------------------------------
    def _spatial_core(self, task: TaskSpec, index: int) -> Optional[int]:
        """Home core for spatial copy *index* (None = go anywhere).

        Partitioned placement spreads the two copies across neighbouring
        cores and puts the recovery copy on a third core when one exists;
        global placement lets the shared ready queue spread them.
        """
        if self.config.placement is not PlacementPolicy.PARTITIONED:
            return None
        base = task.core if task.core is not None else 0
        return (base + index) % self._cores.count

    def _spawn_spatial_copies(self, parent: Job) -> None:
        state = parent.spatial
        assert state is not None
        count = state.tem.claim_launches()
        if state.tem.finished:
            self._settle_spatial(parent)
            return
        for _ in range(count):
            index = state.next_index
            state.next_index += 1
            copy = self._new_job(parent.task, parent.release_time, parent.inputs)
            copy.spatial_parent = parent
            copy.launch_index = index
            home = self._spatial_core(parent.task, index)
            if home is not None:
                copy.home_core = home
            state.copies.append(copy)
            category = "tem.recovery" if index >= 2 else "tem.copy"
            if self.trace.active:
                self.trace.emit(
                    self.sim.now, category, self.name,
                    job=parent.job_id, copy=index + 1,
                )
            self._ready.append(copy)

    def _spatial_copy_finished(self, job: Job) -> Job:
        """Retire one spatial copy; returns its logical parent."""
        parent = job.spatial_parent
        assert parent is not None and parent.spatial is not None
        job.state = JobState.FINISHED
        if job in parent.spatial.copies:
            parent.spatial.copies.remove(job)
        self._end_copy_cleanup(job, faulted=False)
        return parent

    def _advance_spatial(self, parent: Job) -> None:
        state = parent.spatial
        assert state is not None
        if self.config.fail_silent_mode and state.tem.errors_detected > 0:
            self._cancel_spatial_copies(parent)
            self._finish_job(parent)
            self.fail_silent_escalation("fs_detected_error")
            return
        if not state.tem.finished:
            # _spawn_spatial_copies settles itself when the claim ends the
            # machine (omission cap / deadline refusal) — don't settle twice.
            self._spawn_spatial_copies(parent)
            return
        self._settle_spatial(parent)

    def _settle_spatial(self, parent: Job) -> None:
        state = parent.spatial
        assert state is not None
        report = state.tem.report
        self._cancel_spatial_copies(parent)
        if report.delivered_result is not None:
            if self.trace.active:
                self.trace.emit(
                    self.sim.now, "tem.vote", self.name,
                    job=parent.job_id, outcome=report.outcome.value,
                    copies=report.copies_run,
                )
            self._finish_delivered(
                parent,
                report.delivered_result,
                masked=report.outcome is TemOutcome.MASKED,
            )
            return
        self._finish_omitted(parent, report.omission_reason or "tem")

    def _cancel_spatial_copies(self, parent: Job) -> None:
        """Abort every copy still live — the decision races the slowest
        copy, which may be running on a remote core right now."""
        state = parent.spatial
        assert state is not None
        for copy in list(state.copies):
            state.copies.remove(copy)
            copy.state = JobState.FINISHED
            if copy in self._ready:
                self._ready.remove(copy)
            core = self._core_running_job(copy)
            if core is not None:
                slot = self._cores.slots[core]
                assert slot is not None
                slot.event.cancel()
                self._cores.slots[core] = None
                if self.trace.active:
                    self.trace.emit(
                        self.sim.now, "tem.cancel", self.name,
                        job=parent.job_id, core=core,
                    )
            self._end_copy_cleanup(copy, faulted=False)

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    def _preemptable(self, slot: _Running) -> bool:
        """MSRP rule: spinning and lock-holding jobs run non-preemptively
        (preemption is deferred to the section exit)."""
        return not slot.job.holding and slot.job.spinning_on is None

    def _dispatch(self) -> None:
        if self._silent:
            return
        if self.config.placement is PlacementPolicy.PARTITIONED:
            for core in range(self._cores.count):
                self._dispatch_core(core)
        else:
            while self._dispatch_global():
                pass

    def _dispatch_core(self, core: int) -> None:
        """Single-core fixed-priority dispatch of one partition."""
        best = best_ready(self._ready, core)
        slot = self._cores.slots[core]
        if slot is not None:
            if best is None or best.task.priority >= slot.job.task.priority:
                return
            if not self._preemptable(slot):
                return
            self._preempt(core)
            best = best_ready(self._ready, core)
        if best is None:
            return
        self._ready.remove(best)
        self._start_segment(best, core)

    def _dispatch_global(self) -> bool:
        """One global-FP placement step; True when a job was started."""
        best = best_ready(self._ready)
        if best is None:
            return False
        core = self._cores.idle_core()
        if core is None:
            core = self._cores.victim_core(
                urgency=lambda slot: slot.job.task.priority,
                preemptable=self._preemptable,
            )
            if core is None:
                return False
            victim = self._cores.slots[core]
            assert victim is not None
            if best.task.priority >= victim.job.task.priority:
                return False
            self._preempt(core)
            best = best_ready(self._ready)
            if best is None:  # pragma: no cover - preempted job re-queued
                return False
        self._ready.remove(best)
        self._start_segment(best, core)
        return True

    def _preempt(self, core: int) -> None:
        slot = self._cores.slots[core]
        assert slot is not None
        job = slot.job
        elapsed = self.sim.now - slot.started_at
        job.consumed += elapsed
        if job.budget is not None:
            job.budget.consume(elapsed)
        slot.event.cancel()
        job.state = JobState.READY
        self._ready.append(job)
        self._cores.slots[core] = None
        self.stats.preemptions += 1
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.preempt", self.name,
                job=job.job_id, **self._core_kwargs(core),
            )

    def _core_kwargs(self, core: int) -> Dict[str, int]:
        """Trace detail: name the core only on a multicore node, keeping
        single-core traces (and the E6 timeline) byte-identical."""
        if self._cores.count > 1:
            return {"core": core}
        return {}

    def _start_segment(self, job: Job, core: int) -> None:
        if job.plan is None:
            self._plan_copy(job)
        job.state = JobState.RUNNING
        start_at = self.sim.now
        overhead = self.config.context_switch_cost
        fire_in, reason = self._boundary(job)
        event = self.sim.schedule_at(
            start_at + fire_in + overhead, self._segment_event, job, reason, core,
            priority=PRIORITY_KERNEL, label=(self.name, "segment", job.job_id, reason),
        )
        self._cores.slots[core] = _Running(
            job=job, started_at=start_at, event=event, core=core, overhead=overhead,
        )
        if self._cores.count > 1:
            if job.core is not None and job.core != core:
                self.stats.migrations += 1
                if self.trace.active:
                    self.trace.emit(
                        self.sim.now, "kernel.migrate", self.name,
                        job=job.job_id, src=job.core, dst=core,
                    )
            job.core = core
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.dispatch", self.name,
                job=job.job_id, copy=job.copy_index, reason=reason, fire_in=fire_in,
                **self._core_kwargs(core),
            )

    def _continue_segment(self, job: Job, core: int) -> None:
        """Resume the running copy in place after a section boundary —
        no dispatch, no context switch, no preemption decision."""
        now = self.sim.now
        fire_in, reason = self._boundary(job)
        event = self.sim.schedule_at(
            now + fire_in, self._segment_event, job, reason, core,
            priority=PRIORITY_KERNEL, label=(self.name, "segment", job.job_id, reason),
        )
        self._cores.slots[core] = _Running(
            job=job, started_at=now, event=event, core=core, overhead=0,
        )

    def _plan_copy(self, job: Job) -> None:
        entry = self._tasks[job.task.name]
        plan = entry.executable.plan_copy(job.inputs, job.copy_index)
        # Spatial copies are sibling executions of ONE job: the comparison
        # surcharge lands on the second-and-later launches, mirroring the
        # temporal machine's second-and-later copies.
        later_copy = (
            job.copy_index >= 1
            if job.spatial_parent is None
            else job.launch_index >= 1
        )
        if later_copy and self.config.comparison_cost:
            plan.duration += self.config.comparison_cost
        job.copy_index += 1
        job.plan = plan
        job.consumed = 0
        job.budget = ExecutionBudget(
            budget_for_wcet(job.task.wcet, self.config.budget_factor)
            + (self.config.comparison_cost if later_copy else 0)
        )
        job.sections = []
        for section in job.task.critical_sections:
            if section.start >= plan.duration:
                continue  # this copy's computation never reaches the section
            exit_at = min(section.end, plan.duration)
            job.sections.append(
                _Section(
                    resource=section.resource,
                    length=exit_at - section.start,
                    enter_at=section.start,
                    exit_at=exit_at,
                )
            )
        # Latent fault effects (struck while the CPU was idle) hit the next
        # copy that gets planned.
        while self._latent_effects:
            effect = self._latent_effects.pop()
            self._apply_effect_to_plan(job, effect)

    def _current_section(self, job: Job) -> Optional[_Section]:
        for section in job.sections:
            if not section.done:
                return section
        return None

    def _boundary(self, job: Job) -> "Tuple[int, str]":
        assert job.plan is not None and job.budget is not None
        return next_boundary(job.plan, job.sections, job.consumed, job.budget.remaining)

    # ------------------------------------------------------------------
    # Segment events
    # ------------------------------------------------------------------
    def _core_running_job(self, job: Job) -> Optional[int]:
        for core, slot in enumerate(self._cores.slots):
            if slot is not None and slot.job is job:
                return core
        return None

    def _segment_event(self, job: Job, reason: str, core: int) -> None:
        slot = self._cores.slots[core]
        if slot is None or slot.job is not job:  # pragma: no cover - defensive
            raise SchedulingError("segment event fired for a non-running job")
        elapsed = self.sim.now - slot.started_at
        progressed = max(0, elapsed - slot.overhead)
        job.consumed += progressed
        if job.budget is not None:
            job.budget.consume(progressed)
        self._cores.slots[core] = None
        if reason == "complete":
            self._copy_completed(job)
        elif reason == "error":
            assert job.plan is not None
            self._copy_detected_error(job, job.plan.detected_error or "cpu_exception")
        elif reason == "budget":
            self._copy_detected_error(job, "execution_time")
        elif reason == "cs_enter":
            self._cs_enter(job, core)
            return
        elif reason == "cs_exit":
            self._cs_exit(job, core)
            return
        else:  # pragma: no cover - exhaustive
            raise SchedulingError(f"unknown segment event reason {reason}")
        self._dispatch()

    # ------------------------------------------------------------------
    # Critical-section boundaries
    # ------------------------------------------------------------------
    def _cs_enter(self, job: Job, core: int) -> None:
        section = self._current_section(job)
        assert section is not None and not section.entered
        if self.resources.protocol is ResourceProtocol.LOCK:
            granted = self.resources.lock_acquire(
                section.resource, job, job.task.priority
            )
            if not granted:
                # Spin: the core burns the job's own budget until granted
                # (MSRP busy-wait); only the budget timer can interrupt.
                job.spinning_on = section
                assert job.budget is not None
                event = self.sim.schedule_at(
                    self.sim.now + job.budget.remaining,
                    self._segment_event, job, "budget", core,
                    priority=PRIORITY_KERNEL,
                    label=(self.name, "segment", job.job_id, "budget"),
                )
                self._cores.slots[core] = _Running(
                    job=job, started_at=self.sim.now, event=event,
                    core=core, overhead=0,
                )
                if self.trace.active:
                    self.trace.emit(
                        self.sim.now, "kernel.cs_spin", self.name,
                        job=job.job_id, resource=section.resource,
                        **self._core_kwargs(core),
                    )
                return
            job.holding.append(section.resource)
        else:
            section.entry_count = self.resources.free_begin(section.resource)
        section.entered = True
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.cs_enter", self.name,
                job=job.job_id, resource=section.resource,
                **self._core_kwargs(core),
            )
        self._continue_segment(job, core)

    def _cs_exit(self, job: Job, core: int) -> None:
        section = self._current_section(job)
        assert section is not None and section.entered
        if self.resources.protocol is ResourceProtocol.LOCK:
            section.done = True
            self._release_lock(job, section.resource)
            if self.trace.active:
                self.trace.emit(
                    self.sim.now, "kernel.cs_exit", self.name,
                    job=job.job_id, resource=section.resource,
                    **self._core_kwargs(core),
                )
            if self._finish_copy_if_done(job):
                return
            self._continue_segment(job, core)
            # A section exit is a preemption point: preemptions deferred
            # while the lock was held (or spun on) fire now.
            self._dispatch()
            return
        committed = self.resources.free_commit(section.resource, section.entry_count)
        if committed:
            section.done = True
            if self.trace.active:
                self.trace.emit(
                    self.sim.now, "kernel.cs_exit", self.name,
                    job=job.job_id, resource=section.resource,
                    retries=section.retries, **self._core_kwargs(core),
                )
            if self._finish_copy_if_done(job):
                return
            self._continue_segment(job, core)
            return
        # Conflict: a remote core committed during our section — re-execute
        # it (the LEFT-RS retry loop).  The plan stretches by one section
        # length; computation after the section shifts with it.
        section.retries += 1
        self.resources.stats.retry_ticks += section.length
        assert job.plan is not None
        job.plan.duration += section.length
        for later in job.sections:
            if not later.done and not later.entered and later is not section:
                later.enter_at += section.length
                later.exit_at += section.length
        section.exit_at = job.consumed + section.length
        section.entry_count = self.resources.free_begin(section.resource)
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.cs_retry", self.name,
                job=job.job_id, resource=section.resource,
                attempt=section.retries, **self._core_kwargs(core),
            )
        self._continue_segment(job, core)

    def _finish_copy_if_done(self, job: Job) -> bool:
        """A section that ends exactly at the plan's end completes the
        copy in the same tick (no empty 1-tick continuation segment)."""
        assert job.plan is not None
        if job.consumed >= job.plan.duration:
            self._copy_completed(job)
            self._dispatch()
            return True
        return False

    def _release_lock(self, job: Job, resource: str) -> None:
        grantee = self.resources.lock_release(resource, job)
        job.holding.remove(resource)
        if grantee is not None:
            assert isinstance(grantee, Job)
            self._grant(grantee, resource)

    def _grant(self, job: Job, resource: str) -> None:
        """Hand the freed lock to the highest-priority spinner and resume
        its segment, folding the spin into its consumed time/budget."""
        core = self._core_running_job(job)
        section = job.spinning_on
        if core is None or section is None or section.resource != resource:
            # pragma: no cover - waiters are deregistered before they stop
            raise SchedulingError(f"lock {resource!r} granted to a non-spinner")
        slot = self._cores.slots[core]
        assert slot is not None
        slot.event.cancel()
        elapsed = self.sim.now - slot.started_at
        job.consumed += elapsed
        if job.budget is not None:
            job.budget.consume(elapsed)
        self.resources.stats.blocking_ticks += elapsed
        # Spinning burned wall ticks without computing: stretch the plan
        # and shift the pending boundaries so the computation keeps its
        # length.
        assert job.plan is not None
        job.plan.duration += elapsed
        for pending in job.sections:
            if not pending.done and not pending.entered:
                pending.enter_at += elapsed
                pending.exit_at += elapsed
        job.spinning_on = None
        job.holding.append(resource)
        section.entered = True
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.cs_enter", self.name,
                job=job.job_id, resource=resource, spun=elapsed,
                **self._core_kwargs(core),
            )
        self._cores.slots[core] = None
        self._continue_segment(job, core)

    def _end_copy_cleanup(self, job: Job, faulted: bool) -> None:
        """Resource cleanup when a copy stops mid-section (abort, deadline
        miss, spatial cancellation): cancel spins, free held locks.

        A *fault* that aborts a lock holder leaves the resource in an
        unknown state; the kernel keeps it held for
        ``cs_fault_cleanup_cost`` ticks of repair before granting it on —
        the blocking-time blowup the campaigns measure.  The lock-free
        protocol has nothing to repair: the attempt never committed.
        """
        if job.spinning_on is not None:
            self.resources.cancel_wait(job.spinning_on.resource, job)
            job.spinning_on = None
            if faulted:
                self.resources.stats.cs_faults += 1
        inside = any(s.entered and not s.done for s in job.sections)
        if faulted and inside and not job.holding:
            # Lock-free attempt died mid-section: never commits, no cleanup.
            self.resources.stats.cs_faults += 1
        for resource in list(job.holding):
            if faulted:
                self.resources.stats.cs_faults += 1
                cost = self.config.cs_fault_cleanup_cost
                if cost > 0:
                    self.resources.stats.cleanup_ticks += cost
                    job.holding.remove(resource)
                    if self.trace.active:
                        self.trace.emit(
                            self.sim.now, "kernel.cs_cleanup", self.name,
                            job=job.job_id, resource=resource, cost=cost,
                        )
                    self.sim.schedule_after(
                        cost, self._cleanup_release, resource, job,
                        priority=PRIORITY_KERNEL, label=(self.name, "cleanup", resource),
                    )
                    continue
            job.holding.remove(resource)
            grantee = self.resources.lock_release(resource, job)
            if grantee is not None:
                assert isinstance(grantee, Job)
                self._grant(grantee, resource)
        job.sections = []

    def _cleanup_release(self, resource: str, job: Job) -> None:
        if self._silent:
            return
        if self.resources.holder_of(resource) is not job:
            return  # the node restarted; holders were reset
        grantee = self.resources.lock_release(resource, job)
        if grantee is not None:
            assert isinstance(grantee, Job)
            self._grant(grantee, resource)

    # ------------------------------------------------------------------
    # Copy outcomes
    # ------------------------------------------------------------------
    def _copy_completed(self, job: Job) -> None:
        plan = job.plan
        assert plan is not None
        job.plan = None
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.complete", self.name,
                job=job.job_id, copy=job.copy_index,
            )
        if plan.result is None:  # pragma: no cover - defensive
            raise SchedulingError("completed copy carries no result")
        if job.spatial_parent is not None:
            parent = self._spatial_copy_finished(job)
            if plan.bypasses_comparison:
                # Control-flow error skipped the comparison: the unchecked
                # (wrong) result escapes to the outputs (Section 2.7).
                assert parent.spatial is not None
                self._cancel_spatial_copies(parent)
                self._finish_undetected(parent, plan.result)
                return
            assert parent.spatial is not None
            parent.spatial.tem.copy_completed(plan.result)
            self._advance_spatial(parent)
            return
        if plan.bypasses_comparison:
            # Control-flow error skipped the comparison (Section 2.7): the
            # unchecked (wrong) result escapes to the outputs.
            self._finish_undetected(job, plan.result)
            return
        if job.tem is not None:
            job.tem.copy_completed(plan.result)
            self._advance_tem(job)
            return
        # Non-critical task: single execution, direct delivery.
        self._finish_delivered(job, plan.result, masked=False)

    def _copy_detected_error(self, job: Job, mechanism: str) -> None:
        job.plan = None
        self.stats.edm_detections += 1
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.edm", self.name,
                job=job.job_id, mechanism=mechanism,
            )
        self._end_copy_cleanup(job, faulted=True)
        if self.config.fail_silent_mode:
            if job.spatial_parent is not None:
                parent = self._spatial_copy_finished(job)
                self._cancel_spatial_copies(parent)
                self._finish_job(parent)
            else:
                self._finish_job(job)
            self.fail_silent_escalation(mechanism)
            return
        if job.spatial_parent is not None:
            parent = self._spatial_copy_finished(job)
            assert parent.spatial is not None
            parent.spatial.tem.copy_aborted(mechanism)
            self._advance_spatial(parent)
            return
        if job.tem is not None:
            job.tem.copy_aborted(mechanism)
            self._advance_tem(job)
            return
        # Non-critical task: shut it down, keep the node running
        # (Section 2.2, strategy 2).
        entry = self._tasks[job.task.name]
        entry.active = False
        if entry.release_event is not None:
            entry.release_event.cancel()
            entry.release_event = None
        self._finish_job(job)
        self.stats.noncritical_shutdowns += 1
        if self.trace.active:
            self.trace.emit(self.sim.now, "task.shutdown", self.name, task=job.task.name)
        if self.on_noncritical_shutdown is not None:
            self.on_noncritical_shutdown(job.task)

    def _advance_tem(self, job: Job) -> None:
        assert job.tem is not None
        action = job.tem.next_action()
        if self.config.fail_silent_mode and job.tem.errors_detected > 0:
            # FS baseline: a detected error (comparison mismatch included)
            # silences the node; no recovery copy is attempted and no
            # possibly-tainted result is delivered.
            self._finish_job(job)
            self.fail_silent_escalation("fs_detected_error")
            return
        if action is TemAction.RUN_COPY:
            category = "tem.recovery" if job.tem.errors_detected else "tem.copy"
            if self.trace.active:
                self.trace.emit(
                    self.sim.now, category, self.name,
                    job=job.job_id, copy=job.copy_index + 1,
                )
            job.state = JobState.READY
            self._ready.append(job)
            return
        report = job.tem.report
        if action is TemAction.DELIVER:
            assert report.delivered_result is not None
            if self.trace.active:
                self.trace.emit(
                    self.sim.now, "tem.vote", self.name,
                    job=job.job_id, outcome=report.outcome.value,
                    copies=report.copies_run,
                )
            self._finish_delivered(
                job, report.delivered_result, masked=report.outcome is TemOutcome.MASKED
            )
            return
        self._finish_omitted(job, report.omission_reason or "tem")

    # ------------------------------------------------------------------
    # Job termination paths
    # ------------------------------------------------------------------
    def _finish_job(self, job: Job) -> None:
        job.state = JobState.FINISHED
        if job.deadline_event is not None:
            job.deadline_event.cancel()
            job.deadline_event = None
        if job in self._ready:
            self._ready.remove(job)
        if job.spinning_on is not None or job.holding or job.sections:
            self._end_copy_cleanup(job, faulted=False)

    def _finish_delivered(self, job: Job, result: Result, masked: bool) -> None:
        self._finish_job(job)
        job.delivered = result
        if masked:
            self.stats.delivered_masked += 1
        else:
            self.stats.delivered_ok += 1
        self._record_mk(job, missed=False)
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.deliver", self.name,
                job=job.job_id, masked=masked,
            )
        if self.on_deliver is not None:
            self.on_deliver(job.task, job, result)

    def _finish_omitted(self, job: Job, reason: str) -> None:
        self._finish_job(job)
        self.stats.omissions += 1
        self._record_mk(job, missed=True)
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.omission", self.name,
                job=job.job_id, reason=reason,
            )
        if self.on_omission is not None:
            self.on_omission(job.task, job, reason)

    def _finish_undetected(self, job: Job, result: Result) -> None:
        self._finish_job(job)
        self.stats.undetected_wrong_outputs += 1
        self._record_mk(job, missed=False)
        if self.trace.active:
            self.trace.emit(
                self.sim.now, "kernel.undetected_output", self.name, job=job.job_id
            )
        if self.on_undetected_output is not None:
            self.on_undetected_output(job.task, job, result)

    def _deadline_check(self, job: Job) -> None:
        if job.state is JobState.FINISHED:
            return
        self.stats.deadline_misses += 1
        if self.trace.active:
            self.trace.emit(self.sim.now, "kernel.deadline_miss", self.name, job=job.job_id)
        if job.spatial is not None:
            self._cancel_spatial_copies(job)
            self._finish_omitted(job, "deadline")
            self._dispatch()
            return
        core = self._core_running_job(job)
        if core is not None:
            slot = self._cores.slots[core]
            assert slot is not None
            slot.event.cancel()
            self._cores.slots[core] = None
        self._finish_omitted(job, "deadline")
        self._dispatch()

    # ------------------------------------------------------------------
    # Fault-effect application (called by the node layer)
    # ------------------------------------------------------------------
    def apply_fault_effect(self, effect: FaultEffect, core: int = 0) -> str:
        """Apply one manifested fault effect to the kernel's current state.

        *core* names the struck core on a multicore node (transient
        hardware faults are per-core physical events); the default of 0 is
        the paper's single processor.  Returns a short classification
        string for campaign bookkeeping.
        """
        if self._silent:
            return "node_silent"
        if core < 0 or core >= self._cores.count:
            raise ConfigurationError(
                f"fault struck core {core}, node has {self._cores.count}"
            )
        if effect is FaultEffect.NO_EFFECT:
            return "no_effect"
        if effect is FaultEffect.KERNEL_CORRUPTION:
            self.kernel_error("kernel_check")
            return "kernel_error"
        slot = self._cores.slots[core]
        if slot is None:
            # Core idle: the corruption lies latent until the next copy.
            self._latent_effects.append(effect)
            return "latent"
        job = slot.job
        self._fold_running_time(core)
        self._apply_effect_to_plan(job, effect)
        self._rearm(job)
        return "applied_to_copy"

    def _fold_running_time(self, core: int) -> None:
        slot = self._cores.slots[core]
        assert slot is not None
        job = slot.job
        elapsed = self.sim.now - slot.started_at
        job.consumed += elapsed
        if job.budget is not None:
            job.budget.consume(elapsed)
        slot.event.cancel()
        self._cores.slots[core] = None
        if job.spinning_on is not None:
            # The spin is interrupted: the burned ticks were pure blocking.
            # Stretch the plan so the pending boundaries stay aligned with
            # the computation, and leave the waiter queue — the job will
            # re-request the lock when it reaches the entry boundary again.
            section = job.spinning_on
            self.resources.cancel_wait(section.resource, job)
            self.resources.stats.blocking_ticks += elapsed
            assert job.plan is not None
            job.plan.duration += elapsed
            for pending in job.sections:
                if not pending.done and not pending.entered:
                    pending.enter_at += elapsed
                    pending.exit_at += elapsed
            job.spinning_on = None

    def _rearm(self, job: Job) -> None:
        job.state = JobState.READY
        self._ready.append(job)
        self._dispatch()

    def _apply_effect_to_plan(self, job: Job, effect: FaultEffect) -> None:
        plan = job.plan
        if plan is None:  # copy not planned yet; let the effect wait
            self._latent_effects.append(effect)
            return
        if effect is FaultEffect.WRONG_RESULT:
            if plan.result is not None:
                plan.result = self._corrupt_result(plan.result)
        elif effect is FaultEffect.HARDWARE_EXCEPTION:
            if plan.detected_error is None or (plan.error_at or 0) > job.consumed:
                plan.detected_error = "cpu_exception"
                plan.error_at = job.consumed + 1
        elif effect is FaultEffect.TIMING_OVERRUN:
            assert job.budget is not None
            plan.duration = max(plan.duration, job.budget.budget * 2)
            if plan.detected_error == "execution_time":
                plan.error_at = plan.duration
        elif effect is FaultEffect.UNDETECTED_WRONG_OUTPUT:
            if plan.result is not None:
                plan.result = self._corrupt_result(plan.result)
            plan.bypasses_comparison = True
        elif effect is FaultEffect.NO_EFFECT:
            pass
        else:  # pragma: no cover - exhaustive
            raise SchedulingError(f"unhandled fault effect {effect}")

    def _corrupt_result(self, result: Result) -> Result:
        values = list(result)
        if not values:
            return ("corrupted",)  # type: ignore[return-value]
        index = int(self.rng.integers(0, len(values)))
        value = values[index]
        if isinstance(value, int):
            values[index] = value ^ (1 << int(self.rng.integers(0, 31)))
        else:
            magnitude = abs(float(value)) + 1.0
            values[index] = float(value) + magnitude * float(self.rng.uniform(0.5, 2.0))
        return tuple(values)

    def fail_silent_escalation(self, mechanism: str) -> None:
        """FS-mode reaction to any detected error: silence the node.

        Functionally identical to :meth:`kernel_error` but kept separate for
        tracing/accounting — the FS baseline silences on *application*
        errors too, which an NLFT node would have masked.
        """
        if self.trace.active:
            self.trace.emit(self.sim.now, "kernel.fail_silent", self.name, mechanism=mechanism)
        self.shutdown()
        if self.on_kernel_error is not None:
            self.on_kernel_error(mechanism)

    def kernel_error(self, mechanism: str) -> None:
        """An error was detected during kernel execution: go silent.

        Section 2.2, strategy 3 — "Errors detected during execution of the
        real-time kernel should result in the node becoming silent."
        """
        self.stats.kernel_errors += 1
        if self.trace.active:
            self.trace.emit(self.sim.now, "kernel.error", self.name, mechanism=mechanism)
        self.shutdown()
        if self.on_kernel_error is not None:
            self.on_kernel_error(mechanism)
