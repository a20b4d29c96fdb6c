"""The simulated COTS processor: fetch/decode/execute with EDM hooks.

The :class:`Machine` ties together the register file, ECC memory and MMU and
executes mini-ISA programs.  It is deliberately *not* cycle-accurate below
the instruction level — the paper's analysis needs faithful *error
semantics*, not micro-architecture:

* every hardware-detectable error raises a
  :class:`~repro.cpu.exceptions.HardwareException` (the EDMs of Table 1);
* every instruction advances a cycle counter from which the kernel derives
  execution times;
* all architectural state (registers, memory) is open to bit-exact fault
  injection.

Running a program returns a :class:`RunResult`; the kernel and the TEM
executor inspect it to drive comparison, voting and recovery.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import MachineHalted, ProgramError
from .assembler import AssembledProgram
from .exceptions import (
    DivisionByZeroError,
    HardwareException,
    IllegalOpcodeError,
)
from .isa import REGISTER_NAMES, Instruction, decode
from .memory import Memory
from .mmu import ACCESS_EXECUTE, ACCESS_READ, ACCESS_WRITE, KERNEL_DOMAIN, Mmu
from .registers import (
    WORD_MASK,
    Context,
    RegisterFile,
)

#: Default machine geometry (words).
DEFAULT_MEMORY_WORDS = 16_384
DEFAULT_ROM_WORDS = 4_096

#: Default clock: 1 cycle = 1 simulator tick (1 us), i.e. a 1 MHz machine.
#: Slow by modern standards but keeps numbers easy to read in traces; the
#: kernel scales task WCETs accordingly.
DEFAULT_CYCLE_TICKS = 1

#: A pre-specialised instruction: ``op(machine, register_values)``.
Op = Callable[["Machine", Dict[str, int]], None]


def _to_signed(value: int) -> int:
    value &= WORD_MASK
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


@dataclasses.dataclass(slots=True)
class RunResult:
    """Outcome of one :meth:`Machine.run` invocation.

    Attributes
    ----------
    halted:
        True if the program reached HALT normally.
    exception:
        The hardware exception that stopped execution, if any.
    steps / cycles:
        Instructions executed and cycles consumed.
    """

    halted: bool
    exception: Optional[HardwareException]
    steps: int
    cycles: int

    @property
    def ok(self) -> bool:
        """True for a clean HALT with no exception."""
        return self.halted and self.exception is None


class Machine:
    """A simulated single-core COTS processor.

    Parameters
    ----------
    memory_words / rom_words:
        Physical memory size and the read-only prefix reserved for code and
        constants.
    ecc_enabled / mmu_enabled:
        Toggle the corresponding EDMs (fault-injection ablations).
    cycle_ticks:
        Simulator ticks per CPU cycle (links machine time to DES time).
    """

    def __init__(
        self,
        memory_words: int = DEFAULT_MEMORY_WORDS,
        rom_words: int = DEFAULT_ROM_WORDS,
        ecc_enabled: bool = True,
        mmu_enabled: bool = True,
        cycle_ticks: int = DEFAULT_CYCLE_TICKS,
    ) -> None:
        self.registers = RegisterFile()
        self.memory = Memory(memory_words, rom_limit=rom_words, ecc_enabled=ecc_enabled)
        self.mmu = Mmu(enabled=mmu_enabled)
        self.cycle_ticks = int(cycle_ticks)
        self.cycle_count = 0
        self.instruction_count = 0
        self.signature = 0
        self._halted = False
        self._exception_log: List[HardwareException] = []

    def clone(self) -> "Machine":
        """An independent copy of the whole machine state.

        Registers, memory words with their ECC error bits and counters, the
        ROM seal, MMU regions/domain/violations, counters, signature, halt
        flag and exception log are all copied; nothing mutable is shared.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.registers = self.registers.clone()
        twin.memory = self.memory.clone()
        twin.mmu = self.mmu.clone()
        twin._exception_log = list(self._exception_log)
        return twin

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load_program(self, program: AssembledProgram) -> None:
        """Copy an assembled program into ROM (does not seal)."""
        self.memory.load_rom(program.origin, program.words)

    def seal_rom(self) -> None:
        """Freeze the code/constant region against writes."""
        self.memory.seal_rom()

    # ------------------------------------------------------------------
    # State control
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        """True after HALT; cleared by :meth:`prepare`."""
        return self._halted

    def prepare(self, entry: int, stack_top: Optional[int] = None) -> None:
        """Arm the machine to run from *entry* with a fresh stack.

        The register file is cleared (a job starts from a defined context,
        which is also what the TCB snapshot captures), PC set to *entry*, SP
        to *stack_top* (default: top of memory), and the control-flow
        signature accumulator reset.
        """
        self.registers.reset()
        self.registers["PC"] = entry
        self.registers["SP"] = stack_top if stack_top is not None else self.memory.size_words
        self.signature = 0
        self._halted = False

    def save_context(self) -> Context:
        """Snapshot the register file (for the task control block)."""
        return self.registers.save_context()

    def restore_context(self, context: Context) -> None:
        """Restore a register snapshot (recovery from CPU-detected errors)."""
        self.registers.restore_context(context)
        self._halted = False

    @property
    def exception_log(self) -> List[HardwareException]:
        """All hardware exceptions raised so far (coverage accounting)."""
        return self._exception_log

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    # Every architectural effect — register values, memory state, flags,
    # cycle counts, EDM exceptions, the exception log — is bit-identical to
    # the straightforward reference interpreter kept as a test oracle
    # (tests/oracles/reference_cpu.py); the differential suite
    # (tests/cpu/test_fastpath_differential.py) enforces this.  What this
    # interpreter removes is *interpretation overhead only*: each distinct
    # word is decoded once into a pre-specialised operation (register
    # names and immediates resolved, see _specialise), the fetch is inlined
    # into run(), and the common no-error memory access skips the ECC
    # machinery (ECC and bus errors fall back to Memory.read/write, which
    # own those semantics).

    def step(self) -> None:
        """Fetch, decode and execute one instruction.

        Raises the corresponding :class:`HardwareException` when an EDM
        fires; the exception is also appended to :attr:`exception_log`.
        """
        if self._halted:
            raise MachineHalted("machine is halted; call prepare() first")
        exception = self.run(max_steps=1).exception
        if exception is not None:
            raise exception

    def run(
        self, max_steps: int = 1_000_000, stop_on_exception: bool = True
    ) -> RunResult:
        """Run until HALT, a hardware exception, or *max_steps*.

        *max_steps* models the kernel's execution-time budget at machine
        level; exceeding it returns a result with ``halted=False`` and no
        exception, which the budget-timer machinery converts into a timing
        EDM event.

        The instruction/cycle counters are accumulated in locals and flushed
        once (also on exception propagation).  A failed instruction
        contributes neither steps nor cycles.  A logged exception carries no
        traceback: its frames would reference this machine, whose log
        references the exception — a cycle holding every caller's locals.
        """
        steps = 0
        cycles = 0
        exception: Optional[HardwareException] = None
        values = self.registers._values
        mem = self.memory
        size, error_bits, clean = mem.size_words, mem._error_bits, mem._clean
        mmu = self.mmu
        # No instruction switches the protection domain, so the fetch
        # check is fixed for the whole run: a fetch inside the domain's
        # first executable region passes; any other defers to Mmu.check,
        # which scans every region and owns the statistics and the trap.
        code_base = code_end = 0
        checked = mmu.enabled and mmu._domain != KERNEL_DOMAIN
        if checked:
            for base, end, permissions in mmu.view(mmu._domain):
                if "x" in permissions:
                    code_base, code_end = base, end
                    break
        memo = _DECODE_CACHE
        try:
            while not self._halted and steps < max_steps:
                pc = values["PC"]
                try:
                    if checked and not code_base <= pc < code_end:
                        mmu.check(pc, ACCESS_EXECUTE)
                    if 0 <= pc < size and pc not in error_bits:
                        word = clean.get(pc, 0)
                    else:
                        word = mem.read(pc)
                    _, cost, op = memo.get(word) or decode_cached(word)
                    values["PC"] = (pc + 1) & WORD_MASK
                    op(self, values)
                except HardwareException as exc:
                    exc.__traceback__ = None
                    self._exception_log.append(exc)
                    exception = exc
                    if stop_on_exception:
                        break
                else:
                    steps += 1
                    cycles += cost
        finally:
            self.instruction_count += steps
            self.cycle_count += cycles
        return RunResult(
            halted=self._halted,
            exception=exception,
            steps=steps,
            cycles=cycles,
        )

    def _mem_read(self, address: int) -> int:
        """Data read: no-error words bypass the ECC machinery entirely."""
        mem = self.memory
        if 0 <= address < mem.size_words and address not in mem._error_bits:
            return mem._clean.get(address, 0)
        return mem.read(address)

    def _mem_write(self, address: int, value: int) -> None:
        """Data write: in-bounds RAM writes store directly (ROM and bus
        violations fall back to Memory.write for its exact exceptions)."""
        mem = self.memory
        if 0 <= address < mem.size_words and not (
            mem._rom_sealed and address < mem.rom_limit
        ):
            mem._clean[address] = value & WORD_MASK
            mem._error_bits.pop(address, None)
        else:
            mem.write(address, value)

    # ------------------------------------------------------------------
    # I/O convenience (memory-mapped task inputs/outputs)
    # ------------------------------------------------------------------
    def write_words(self, base: int, values: Sequence[int]) -> None:
        """Write a block of words (kernel-mode, bypasses task MMU domain)."""
        previous = self.mmu.domain
        self.mmu.enter_kernel()
        try:
            for offset, value in enumerate(values):
                self.memory.write(base + offset, int(value) & WORD_MASK)
        finally:
            self.mmu.enter_domain(previous)

    def read_words(self, base: int, count: int) -> List[int]:
        """Read a block of words in kernel mode (ECC applies)."""
        previous = self.mmu.domain
        self.mmu.enter_kernel()
        try:
            return [self.memory.read(base + offset) for offset in range(count)]
        finally:
            self.mmu.enter_domain(previous)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(pc={self.registers['PC']:#x}, halted={self._halted}, "
            f"cycles={self.cycle_count})"
        )


# ----------------------------------------------------------------------
# Decode memo
# ----------------------------------------------------------------------

#: word -> (Instruction | None, cycles, op).  Decoding and specialising are
#: pure functions of the 32-bit word, so memoizing them is
#: semantics-preserving: the machine decodes each distinct word once (at
#: first fetch) instead of on every fetch.  Cached instructions are frozen
#: and ops close over constants only, so one entry is shared across
#: fetches and machines.
_DECODE_CACHE: Dict[int, "tuple[Optional[Instruction], int, Op]"] = {}

#: Fault-injection campaigns flip bits in instruction memory, so the set of
#: distinct words seen grows over a long campaign; cap the cache so a
#: pathological workload cannot grow it without bound.
_DECODE_CACHE_MAX = 1 << 16


def decode_cached(word: int) -> "tuple[Optional[Instruction], int, Op]":
    """Memoized decode; returns ``(instruction | None, cycles, op)``.

    The cycle cost and the operation are precomputed so the interpreter
    pays one dict lookup and one call per fetch.
    """
    entry = _DECODE_CACHE.get(word)
    if entry is None:
        if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
            _DECODE_CACHE.clear()
        ins = decode(word)
        cycles = ins.cycles if ins is not None else 0
        entry = _DECODE_CACHE[word] = (ins, cycles, _specialise(ins, word))
    return entry


def _nop(m: Machine, v: Dict[str, int]) -> None:
    return


def _specialise(ins: Optional[Instruction], word: int) -> Op:
    """The operation of one decoded *word*, called after the fetch advanced
    PC.  Register names, immediates and shift amounts are resolved here
    once; flags follow RegisterFile.update_arith_flags (Z=1, N=2, C=4,
    where C is "the result did not fit 32 bits").  Every register writer
    masks to 32 bits, so ``a - (a >> 31 << 32)`` is a register's signed
    value."""
    if ins is None:
        def op(m, v):  # illegal opcode: the trap leaves PC at the word
            pc = v["PC"] = (v["PC"] - 1) & WORD_MASK
            raise IllegalOpcodeError(
                f"illegal opcode {word >> 24 & 0xFF:#04x} at address {pc:#x}",
                address=pc,
            )
        return op
    name = ins.mnemonic
    rd, ra, rb = REGISTER_NAMES[ins.rd], REGISTER_NAMES[ins.ra], REGISTER_NAMES[ins.rb]
    imm = ins.imm  # sign-extended: equals _to_signed(uimm)
    uimm = imm & WORD_MASK
    shift = imm & 31
    if name == "NOP":
        return _nop
    if name == "HALT":
        def op(m, v):
            m._halted = True
    elif name == "MOVE":
        def op(m, v):
            v[rd] = v[ra]
    elif name == "MOVEI":
        def op(m, v):
            v[rd] = uimm
    elif name == "MOVEHI":
        high = (imm & 0xFFFF) << 16

        def op(m, v):
            v[rd] = high | (v[rd] & 0xFFFF)
    elif name == "LOAD":
        def op(m, v):
            address = (v[ra] + imm) & WORD_MASK
            m.mmu.check(address, ACCESS_READ)
            v[rd] = m._mem_read(address)
    elif name == "STORE":
        def op(m, v):
            address = (v[ra] + imm) & WORD_MASK
            m.mmu.check(address, ACCESS_WRITE)
            m._mem_write(address, v[rd])
    elif name == "PUSH":
        def op(m, v):
            sp = (v["SP"] - 1) & WORD_MASK
            m.mmu.check(sp, ACCESS_WRITE)
            m._mem_write(sp, v[rd])
            v["SP"] = sp
    elif name == "POP":
        def op(m, v):
            sp = v["SP"]
            m.mmu.check(sp, ACCESS_READ)
            v[rd] = m._mem_read(sp)
            v["SP"] = (sp + 1) & WORD_MASK
    elif name in ("ADD", "ADDI", "SUB", "SUBI"):
        subtract = name.startswith("SUB")
        if name.endswith("I"):
            addend = -uimm if subtract else uimm

            def op(m, v):
                r = v[ra] + addend
                t = r & WORD_MASK
                v["SR"] = v["SR"] & ~7 | (t == 0) | t >> 31 << 1 | (r != t) << 2
                v[rd] = t
        elif not subtract:
            def op(m, v):
                r = v[ra] + v[rb]
                t = r & WORD_MASK
                v["SR"] = v["SR"] & ~7 | (t == 0) | t >> 31 << 1 | (r != t) << 2
                v[rd] = t
        else:
            def op(m, v):
                r = v[ra] - v[rb]
                t = r & WORD_MASK
                v["SR"] = v["SR"] & ~7 | (t == 0) | t >> 31 << 1 | (r != t) << 2
                v[rd] = t
    elif name in ("MUL", "MULI"):
        immediate = name == "MULI"

        def op(m, v):
            a = v[ra]
            b = imm if immediate else v[rb] - (v[rb] >> 31 << 32)
            r = (a - (a >> 31 << 32)) * b
            t = r & WORD_MASK
            v["SR"] = v["SR"] & ~7 | (t == 0) | t >> 31 << 1 | (r != t) << 2
            v[rd] = t
    elif name in ("DIV", "DIVI"):
        immediate = name == "DIVI"

        def op(m, v):
            b = imm if immediate else _to_signed(v[rb])
            if b == 0:
                raise DivisionByZeroError("integer division by zero")
            r = int(_to_signed(v[ra]) / b)  # truncates toward zero
            t = r & WORD_MASK
            v["SR"] = v["SR"] & ~7 | (t == 0) | t >> 31 << 1 | (r != t) << 2
            v[rd] = t
    elif name in ("AND", "ANDI", "OR", "ORI", "XOR", "XORI"):
        # Results of masked operands fit 32 bits: the carry clears.
        kind, immediate = name.rstrip("I"), name.endswith("I")

        def op(m, v):
            a = v[ra]
            b = uimm if immediate else v[rb]
            r = a & b if kind == "AND" else a | b if kind == "OR" else a ^ b
            v["SR"] = v["SR"] & ~7 | (r == 0) | r >> 31 << 1
            v[rd] = r
    elif name == "SHL":
        def op(m, v):
            v[rd] = (v[ra] << shift) & WORD_MASK
    elif name == "SHR":
        def op(m, v):
            v[rd] = (v[ra] & WORD_MASK) >> shift
    elif name in ("CMP", "CMPI"):
        immediate = name == "CMPI"

        def op(m, v):
            a = v[ra]
            d = a - (a >> 31 << 32) - (imm if immediate else v[rb] - (v[rb] >> 31 << 32))
            v["SR"] = v["SR"] & ~3 | (d == 0) | (d < 0) << 1
    elif name == "BRA":
        def op(m, v):
            v["PC"] = (v["PC"] + imm) & WORD_MASK
    elif name in ("BEQ", "BNE", "BLT", "BGE"):
        flag = 1 if name in ("BEQ", "BNE") else 2
        taken = flag if name in ("BEQ", "BLT") else 0

        def op(m, v):
            if (v["SR"] & flag) == taken:
                v["PC"] = (v["PC"] + imm) & WORD_MASK
    elif name == "JMP":
        def op(m, v):
            v["PC"] = v[ra]
    elif name == "JSR":
        def op(m, v):
            sp = (v["SP"] - 1) & WORD_MASK
            m.mmu.check(sp, ACCESS_WRITE)
            m._mem_write(sp, v["PC"])
            v["SP"] = sp
            v["PC"] = uimm
    elif name == "RTS":
        def op(m, v):
            sp = v["SP"]
            m.mmu.check(sp, ACCESS_READ)
            v["PC"] = m._mem_read(sp)
            v["SP"] = (sp + 1) & WORD_MASK
    elif name == "SIG":
        low = imm & 0xFFFF

        def op(m, v):
            m.signature = (m.signature * 31 + low) & WORD_MASK
    else:  # pragma: no cover - decode() only yields OPCODES mnemonics
        raise ProgramError(f"decoder produced unexecutable instruction {ins}")
    return op
