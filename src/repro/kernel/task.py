"""Task model of the real-time kernel.

The paper's basic task model (Figure 2) is a periodic *read input - compute -
write output* loop.  A :class:`TaskSpec` describes the static attributes —
period, deadline, worst-case execution time (WCET), priority, criticality —
and an :class:`Executable` provides the computation.

Priority convention: **lower number = higher priority** (priority 0 is the
most urgent).  Priorities are assigned on the basis of task *criticality*
(Section 2.8): every critical task outranks every non-critical task; see
:mod:`repro.kernel.priority`.

Two executable flavours exist:

* :class:`CallableExecutable` — a plain Python function plus an execution
  time; fast, used in long distributed simulations.  Fault effects on these
  tasks are modelled through
  :class:`~repro.cpu.profiles.ManifestationProfile`.
* :class:`MachineExecutable` — a mini-ISA program on a simulated processor;
  slower but with *emergent* fault behaviour, used by the fault-injection
  campaigns that estimate coverage (experiment E5).
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..cpu.assembler import AssembledProgram
from ..cpu.machine import Machine
from ..errors import ConfigurationError

from ..types import Result
from .resources import CriticalSection, validate_sections


class Criticality(enum.Enum):
    """Task criticality classes of Section 2.2."""

    CRITICAL = "critical"
    NON_CRITICAL = "non_critical"


class TemMode(enum.Enum):
    """How a critical task's redundant copies are arranged (ROADMAP item 4).

    TEMPORAL is the paper's mechanism — copies run back to back on one
    core.  SPATIAL runs the two copies *concurrently on different cores*
    (node-level spatial redundancy, cf. the EFTOS voting farm,
    arXiv:1401.2920) with the comparison at joint completion and the
    recovery copy placed on a third core when one exists.  On a
    single-core node SPATIAL degenerates to TEMPORAL — there is no second
    core to be spatial on.
    """

    TEMPORAL = "temporal"
    SPATIAL = "spatial"


@dataclasses.dataclass(frozen=True)
class WeaklyHardConstraint:
    """A weakly-hard ``(m, k)`` deadline constraint (Liang et al.,
    arXiv:2008.06192): in *any* window of ``window_jobs`` (k) consecutive
    jobs, at most ``max_misses`` (m) may miss their deadline.

    ``(0, 1)`` is the hard-deadline degenerate case — no job may ever
    miss — under which every weakly-hard code path must behave
    bit-identically to the hard-deadline implementation (the differential
    gate in ``tests/faults/test_mk_degeneracy.py`` enforces this).
    """

    max_misses: int
    window_jobs: int

    def __post_init__(self) -> None:
        if self.window_jobs < 1:
            raise ConfigurationError("(m,k): window k must be >= 1")
        if not 0 <= self.max_misses < self.window_jobs:
            raise ConfigurationError(
                f"(m,k): need 0 <= m < k, got m={self.max_misses} "
                f"k={self.window_jobs} (m >= k would constrain nothing)"
            )

    @property
    def is_hard(self) -> bool:
        """True when no miss is ever tolerated (m = 0)."""
        return self.max_misses == 0

    def max_misses_in(self, jobs: int) -> int:
        """Largest miss count any *jobs*-long run can carry without some
        k-window exceeding m misses.

        The extremal pattern packs m misses at the start of every k-aligned
        block: ``floor(jobs / k) * m`` full blocks plus up to ``m`` misses
        in the final partial block.
        """
        if jobs <= 0:
            return 0
        full, rest = divmod(jobs, self.window_jobs)
        return full * self.max_misses + min(rest, self.max_misses)


class MKWindow:
    """Sliding-window miss counter enforcing one task's (m,k) constraint.

    The window remembers the outcomes of the last ``k - 1`` jobs (miss =
    True); :meth:`can_accept_miss` answers the recovery policy's question
    — *may the next job miss without any k-window exceeding m misses?* —
    and :meth:`record` appends a job's actual outcome.

    The counter is resumable: :meth:`resume` rebuilds a window from the
    last ``k - 1`` outcomes, and the property suite
    (``tests/property/test_mk_window.py``) proves that splitting any
    record sequence at any point and resuming from that suffix leaves
    every subsequent decision unchanged.  The ``jobs``/``misses``/
    ``violations`` counters are shard-local statistics, not part of the
    history: a resumed window restarts them at zero, and campaign totals
    are summed across shard records rather than read off a single
    window.
    """

    __slots__ = ("constraint", "_history", "jobs", "misses", "violations")

    def __init__(
        self,
        constraint: WeaklyHardConstraint,
        history: Iterable[int] = (),
    ) -> None:
        self.constraint = constraint
        self._history: "collections.deque[int]" = collections.deque(
            (1 if h else 0 for h in history),
            maxlen=constraint.window_jobs - 1,
        )
        self.jobs = 0
        self.misses = 0
        self.violations = 0

    # ------------------------------------------------------------------
    @property
    def recent_misses(self) -> int:
        """Misses among the last ``k - 1`` recorded jobs."""
        return sum(self._history)

    def can_accept_miss(self) -> bool:
        """True iff a miss on the *next* job keeps every window within m.

        Only windows ending at the next job are newly completed, so the
        check is local: misses in the last ``k - 1`` outcomes plus the
        candidate miss must not exceed m.
        """
        return self.recent_misses + 1 <= self.constraint.max_misses

    def record(self, missed: bool) -> bool:
        """Append one job's outcome; returns True when this miss pushed a
        k-window past m misses (an (m,k) violation — node-level failure
        in the weakly-hard dependability model)."""
        violated = bool(missed) and not self.can_accept_miss()
        self.jobs += 1
        if missed:
            self.misses += 1
        if violated:
            self.violations += 1
        self._history.append(1 if missed else 0)
        return violated

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls, constraint: WeaklyHardConstraint, state: Iterable[int]
    ) -> "MKWindow":
        """A window whose history is *state*: the last ``k - 1`` outcomes,
        oldest first, as 0/1 ints (a journal payload carries them).

        Every subsequent :meth:`can_accept_miss`/:meth:`record` decision
        matches that of a window which recorded those outcomes; the
        statistics counters start at zero (they are shard-local, not
        checkpointed)."""
        return cls(constraint, history=state)


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """Static description of a periodic task.

    All times are simulator ticks (microseconds).

    Attributes
    ----------
    name:
        Unique identifier within a node.
    period:
        Release period.
    wcet:
        Worst-case execution time of *one* copy (TEM doubles/triples the
        demand for critical tasks; the schedulability analysis accounts
        for that, not the spec).
    deadline:
        Relative deadline; defaults to the period.
    priority:
        Fixed priority; lower number = higher priority.
    criticality:
        CRITICAL tasks run under temporal error masking; NON_CRITICAL tasks
        run once and are shut down on error (Section 2.2).
    offset:
        Release offset of the first job.
    weakly_hard:
        Optional (m,k) constraint: the task tolerates up to m deadline
        misses in any k consecutive jobs (``None`` = hard deadline, the
        paper's default).  Consumed by the miss-budget-aware recovery
        policy (:mod:`repro.core.tem`) and the response-time analysis
        (:func:`repro.kernel.analysis.response_time`), whose recovery
        term skips the recoveries the budget absorbs.
    core:
        Home core under partitioned multicore scheduling (``None`` =
        core 0, which on an M = 1 node is the paper's single processor).
        Ignored under global scheduling.
    tem_mode:
        Copy arrangement for critical tasks: temporal masking (the
        paper's TEM) or spatial redundancy across cores.
    critical_sections:
        Shared-resource accesses inside one copy
        (:class:`~repro.kernel.resources.CriticalSection` offsets in
        computation ticks); must be ordered, non-overlapping and inside
        the WCET.
    """

    name: str
    period: int
    wcet: int
    priority: int
    deadline: Optional[int] = None
    criticality: Criticality = Criticality.CRITICAL
    offset: int = 0
    weakly_hard: Optional[WeaklyHardConstraint] = None
    core: Optional[int] = None
    tem_mode: TemMode = TemMode.TEMPORAL
    critical_sections: Tuple[CriticalSection, ...] = ()

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError(f"task {self.name!r}: period must be positive")
        if self.wcet <= 0:
            raise ConfigurationError(f"task {self.name!r}: wcet must be positive")
        if self.relative_deadline <= 0:
            raise ConfigurationError(f"task {self.name!r}: deadline must be positive")
        if self.wcet > self.relative_deadline:
            raise ConfigurationError(
                f"task {self.name!r}: wcet {self.wcet} exceeds deadline "
                f"{self.relative_deadline}"
            )
        if self.offset < 0:
            raise ConfigurationError(f"task {self.name!r}: offset must be non-negative")
        if self.core is not None and self.core < 0:
            raise ConfigurationError(f"task {self.name!r}: core must be non-negative")
        if self.critical_sections:
            validate_sections(self.critical_sections, self.wcet, self.name)

    @property
    def relative_deadline(self) -> int:
        """Deadline relative to release (defaults to the period)."""
        return self.deadline if self.deadline is not None else self.period

    @property
    def utilization(self) -> float:
        """Single-copy utilization C/T."""
        return self.wcet / self.period

    @property
    def is_critical(self) -> bool:
        return self.criticality is Criticality.CRITICAL


@dataclasses.dataclass
class CopyPlan:
    """What one execution copy *would* do, as planned at dispatch time.

    The scheduler plays the plan out over simulated time; a fault arriving
    mid-copy may revise it (abort earlier, corrupt the result, stretch the
    duration).

    Attributes
    ----------
    duration:
        Execution time the copy needs (ticks of pure CPU time).
    result:
        Output tuple produced if the copy completes.
    detected_error:
        EDM mechanism name if a hardware/software check fires, else None.
    error_at:
        CPU time into the copy at which the EDM fires.
    bypasses_comparison:
        True for the rare control-flow error that jumps past the
        comparison/vote and delivers an unchecked result (Section 2.7).
    """

    duration: int
    result: Optional[Result]
    detected_error: Optional[str] = None
    error_at: Optional[int] = None
    bypasses_comparison: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("copy duration must be positive")
        if self.detected_error is not None:
            if self.error_at is None:
                self.error_at = self.duration
            if not 0 <= self.error_at <= self.duration:
                raise ConfigurationError("error_at must fall within the copy duration")


class Executable:
    """Computation behind a task.  Subclasses produce :class:`CopyPlan`s."""

    def plan_copy(self, inputs: Result, copy_index: int) -> CopyPlan:
        """Plan one execution copy for the given inputs.

        *copy_index* counts the copies of the current job (0-based); an
        executable may use it for diversity, logging, or test scripting.
        """
        raise NotImplementedError


class CallableExecutable(Executable):
    """A Python function with a fixed (or callable) execution time.

    Parameters
    ----------
    fn:
        Maps the input tuple to the output tuple — the *compute* phase of
        Figure 2.
    execution_time:
        Ticks of CPU time per copy, or a callable ``(inputs, copy_index) ->
        ticks`` for data-dependent timing.
    """

    def __init__(
        self,
        fn: Callable[[Result], Result],
        execution_time: "int | Callable[[Result, int], int]",
    ) -> None:
        self._fn = fn
        self._execution_time = execution_time

    def plan_copy(self, inputs: Result, copy_index: int) -> CopyPlan:
        if callable(self._execution_time):
            duration = int(self._execution_time(inputs, copy_index))
        else:
            duration = int(self._execution_time)
        outputs = tuple(self._fn(tuple(inputs)))
        return CopyPlan(duration=duration, result=outputs)


class MachineExecutable(Executable):
    """A mini-ISA program run on a dedicated simulated processor.

    The machine is *owned* by the executable: each copy re-prepares it
    (fresh registers, fresh stack), writes the inputs to ``input_base``,
    runs to HALT and reads ``output_count`` words from ``output_base``.

    Hardware exceptions and budget overruns surface in the returned
    :class:`CopyPlan` so the TEM machinery reacts exactly as the paper
    describes.
    """

    #: MMU protection-domain name used for task execution.
    TASK_DOMAIN = "task"

    def __init__(
        self,
        machine: Machine,
        program: AssembledProgram,
        entry: str = "start",
        input_base: int = 0x1800,
        output_base: int = 0x1900,
        input_count: int = 0,
        output_count: int = 1,
        max_steps: int = 100_000,
        confine_with_mmu: bool = True,
        stack_words: int = 256,
    ) -> None:
        self.machine = machine
        self.program = program
        self.entry_address = program.address_of(entry) if entry in program.labels else program.origin
        self.input_base = input_base
        self.output_base = output_base
        self.input_count = input_count
        self.output_count = output_count
        self.max_steps = max_steps
        self.confine_with_mmu = confine_with_mmu
        machine.load_program(program)
        machine.seal_rom()
        if confine_with_mmu:
            self._install_regions(stack_words)

    def clone(self) -> "MachineExecutable":
        """An independent copy running on a :meth:`Machine.clone` of this
        executable's machine (program and layout are shared, immutable)."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.machine = self.machine.clone()
        return twin

    def _install_regions(self, stack_words: int) -> None:
        """Confine the task to its code, data and stack (Section 2.4).

        With these regions installed and the task run in its own protection
        domain, a corrupted PC or SP that leaves the task's footprint is
        caught by the MMU as an address error — the fault-confinement EDM
        of Table 1.
        """
        from ..cpu.mmu import Region

        mmu = self.machine.mmu
        mmu.add_region(Region(
            base=self.program.origin, size=max(1, self.program.size),
            permissions="rx", domain=self.TASK_DOMAIN, name="code",
        ))
        data_base = min(self.input_base, self.output_base)
        data_end = max(self.input_base + max(1, self.input_count),
                       self.output_base + self.output_count)
        mmu.add_region(Region(
            base=data_base, size=data_end - data_base,
            permissions="rw", domain=self.TASK_DOMAIN, name="data",
        ))
        stack_top = self.machine.memory.size_words
        mmu.add_region(Region(
            base=stack_top - stack_words, size=stack_words,
            permissions="rw", domain=self.TASK_DOMAIN, name="stack",
        ))

    def plan_copy(self, inputs: Result, copy_index: int) -> CopyPlan:
        machine = self.machine
        machine.prepare(self.entry_address)
        if self.input_count:
            machine.write_words(self.input_base, [int(v) for v in inputs[: self.input_count]])
        if self.confine_with_mmu:
            machine.mmu.enter_domain(self.TASK_DOMAIN)
        try:
            run = machine.run(max_steps=self.max_steps)
        finally:
            machine.mmu.enter_kernel()
        duration = max(1, run.cycles * machine.cycle_ticks)
        if run.exception is not None:
            return CopyPlan(
                duration=duration,
                result=None,
                detected_error=run.exception.mechanism,
                error_at=duration,
            )
        if not run.halted:
            # Budget exhausted at machine level -> timing EDM.
            return CopyPlan(
                duration=duration,
                result=None,
                detected_error="execution_time",
                error_at=duration,
            )
        outputs = tuple(machine.read_words(self.output_base, self.output_count))
        return CopyPlan(duration=duration, result=outputs)


def validate_task_set(tasks: Sequence[TaskSpec]) -> None:
    """Reject duplicate names or duplicate priorities within one node.

    Distinct priorities keep the fixed-priority scheduler deterministic —
    the paper's kernel assigns unique, criticality-derived priorities.
    """
    names = [t.name for t in tasks]
    if len(names) != len(set(names)):
        raise ConfigurationError(f"duplicate task names in {names}")
    priorities = [t.priority for t in tasks]
    if len(priorities) != len(set(priorities)):
        raise ConfigurationError(
            f"duplicate priorities {priorities}; fixed-priority scheduling "
            "requires unique priorities"
        )
