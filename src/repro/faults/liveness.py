"""Pre-injection liveness: which faults cannot change a TEM job.

After Barbosa, Vinter, Folkesson and Karlsson, "Assembly-level
pre-injection analysis for improving fault injection efficiency" (EDCC
2005).  A transient bit flip in a register or memory word is *dead* when
the fault-free job, from the flip's arrival on, writes that location
before it reads it, or never touches it again: nothing ever reads the
flipped value, so the faulty job is the fault-free job.  Its record is
known without running the CPU.

A :class:`LivenessTable` is built once per harness from one traced run of
the fault-free job and the golden copies after it, up to the copy cap
(:meth:`AccessLog.attached` swaps access-logging
stand-ins into a clone's register file and memory and single-steps its
``run``, calling a hook before every instruction — the harness takes its
golden checkpoints there).  The run goes through the harness's own copy
executor, so the table sees exactly what a trial does around the
instructions: ``prepare``, the input ``write_words``, the signature check
and the output ``read_words``.  An ECC scrub happens only on a logged
read, and the MMU checks addresses computed from logged register reads.

**Ordering.**  Each access is stamped with a global step.  An access made
by the instruction at global step *s* gets stamp *s*; an access made
between instructions, when the next instruction is *s*, gets stamp
*s - 1*.  A fault with ``at_step = s`` is injected after the harness
prepares the copy that reaches step *s* and before the instruction at *s*
runs, so the accesses that can see it are exactly those stamped ``>= s``
— a copy's ``prepare`` writes do not kill a fault that arrives at that
copy's first step.

**Rule.**  A fault is dead iff it is transient, targets a register other
than PC or an in-range memory word, has an arrival step, and the first
access at or after that step, up to the end of the fault-free TEM job
(the table's *horizon*), is a write, or there is none.  Within one
instruction accesses keep their order, so a read-modify-write (an SR
flag update, ``MOVEHI``) is a read.  PC faults and permanent faults are
never dead.

**Live words at a copy boundary.**  The same rule, applied at a copy end
to every traced copy after it, tells a faulty trial when it may stop
simulating (:meth:`LivenessTable.live_words`): a memory word is live at
the end of golden copy *c*, global step *e*, when its first access at or
after *e* is a read.  A trial whose memory agrees with the golden memory
on every live word after copy *c* runs the later copies exactly as the
golden run does.  The accesses stamped *e - 1* after the copy (the next
copy's ``prepare`` and input writes) are left out: they only write, so
leaving them out can only add live words.
"""

from __future__ import annotations

import contextlib
import functools
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Tuple

from ..cpu.machine import Machine, RunResult
from ..cpu.registers import ALL_REGISTERS
from .types import MEMORY_TARGETS, REGISTER_TARGETS, Fault, FaultTarget, FaultType

#: Per location: access stamps (non-decreasing) and, in parallel, whether
#: each access is a write.
_Accesses = Tuple[List[int], List[bool]]


class _LoggedDict(dict):
    """A register-value or memory-word dict that logs every access."""

    __slots__ = ("_accesses", "_log")

    def __init__(self, data: dict, accesses: dict, log: "AccessLog") -> None:
        super().__init__(data)
        self._accesses = accesses
        self._log = log

    def _note(self, key, write: bool) -> None:
        self._accesses.setdefault(key, []).append((self._log.stamp, write))

    def __getitem__(self, key):
        self._note(key, False)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._note(key, False)
        return dict.get(self, key, default)

    def __setitem__(self, key, value) -> None:
        self._note(key, True)
        dict.__setitem__(self, key, value)


class AccessLog:
    """Every register and memory-word access of one machine, stamped."""

    def __init__(self) -> None:
        #: The stamp the next access gets: the global step of the running
        #: instruction, or between instructions the step of the last one
        #: (see the module docstring).  A failed instruction takes a step,
        #: as in the harness's step accounting.
        self.stamp = -1
        self._registers: Dict[str, List[Tuple[int, bool]]] = {}
        self._memory: Dict[int, List[Tuple[int, bool]]] = {}

    @contextlib.contextmanager
    def attached(
        self, machine: Machine, before_step: Callable[[], None]
    ) -> Iterator[None]:
        """Log *machine*'s accesses and make it single-step, inside the block.

        The register file and memory get logging stand-ins for their value
        dicts, and ``machine.run`` runs one instruction at a time so every
        access is stamped with its instruction's global step;
        *before_step* is called before each instruction.  On exit the
        machine's own ``run`` is back: the stand-in refers to the machine,
        and left in place it would make the machine cyclic garbage.
        """
        registers, memory = machine.registers, machine.memory
        registers._values = _LoggedDict(registers._values, self._registers, self)
        memory._clean = _LoggedDict(memory._clean, self._memory, self)
        machine.run = functools.partial(self._run, machine, before_step)
        try:
            yield
        finally:
            del machine.run

    def _run(
        self,
        machine: Machine,
        before_step: Callable[[], None],
        max_steps: int = 1_000_000,
        stop_on_exception: bool = True,
    ) -> RunResult:
        steps = cycles = 0
        while steps < max_steps and not machine._halted:
            self.stamp += 1
            before_step()
            result = Machine.run(machine, 1, stop_on_exception)
            if result.exception is not None:
                return RunResult(machine._halted, result.exception, steps, cycles)
            steps += 1
            cycles += result.cycles
        return RunResult(machine._halted, None, steps, cycles)

    def table(self, memory_words: int, horizon: int) -> "LivenessTable":
        """The def/use table of everything logged so far; *horizon* is the
        global step at which the fault-free TEM job ended."""

        def split(log: Dict) -> Dict:
            return {
                key: ([stamp for stamp, _ in accesses], [write for _, write in accesses])
                for key, accesses in log.items()
            }

        return LivenessTable(
            split(self._registers), split(self._memory), memory_words, horizon
        )


class LivenessTable:
    """Def/use table of one harness's golden copies."""

    __slots__ = ("_registers", "_memory", "_memory_words", "_horizon")

    def __init__(
        self,
        registers: Dict[str, _Accesses],
        memory: Dict[int, _Accesses],
        memory_words: int,
        horizon: int,
    ) -> None:
        self._registers = registers
        self._memory = memory
        self._memory_words = memory_words
        self._horizon = horizon

    def is_dead(self, fault: Fault) -> bool:
        """True when *fault* cannot change the job (see the module rule)."""
        step = fault.at_step
        if fault.fault_type is not FaultType.TRANSIENT or step is None:
            return False
        target = fault.target
        if target in REGISTER_TARGETS:
            name = fault.register
            if target is FaultTarget.PC or name == "PC" or name not in ALL_REGISTERS:
                return False
            accesses = self._registers.get(name)
        elif target in MEMORY_TARGETS:
            if not 0 <= fault.address < self._memory_words:
                return False
            accesses = self._memory.get(fault.address)
        else:
            return False
        if accesses is None:
            return True
        stamps, writes = accesses
        # A fault due before the first step arrives at step 0.
        first = bisect_left(stamps, max(step, 0))
        return first == len(stamps) or stamps[first] >= self._horizon or writes[first]

    def live_words(self, step: int) -> List[int]:
        """The memory words whose first access at or after *step* is a read
        (see the module docstring)."""
        live = []
        for address, (stamps, writes) in self._memory.items():
            first = bisect_left(stamps, step)
            if first < len(stamps) and not writes[first]:
                live.append(address)
        return live
