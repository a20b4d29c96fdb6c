"""The reference CPU interpreter: the semantics :class:`Machine` must match.

:class:`ReferenceMachine` decodes every fetched word afresh, dispatches on
mnemonic strings and goes through the public register-file, memory and MMU
APIs for every access.  It is slow and obviously correct; the production
interpreter in :mod:`repro.cpu.machine` (memoized pre-specialised
operations, inlined fetch and no-error memory accesses, batched counters)
must be bit-identical to it in every architectural effect.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.exceptions import (
    DivisionByZeroError,
    HardwareException,
    IllegalOpcodeError,
)
from repro.cpu.isa import Instruction, decode, register_name
from repro.cpu.machine import Machine, RunResult, _to_signed
from repro.cpu.mmu import ACCESS_EXECUTE, ACCESS_READ, ACCESS_WRITE
from repro.cpu.registers import FLAG_NEGATIVE, FLAG_ZERO, WORD_MASK
from repro.errors import MachineHalted, ProgramError


class ReferenceMachine(Machine):
    """A :class:`Machine` whose ``step``/``run`` use the reference interpreter."""

    def step(self) -> None:
        if self._halted:
            raise MachineHalted("machine is halted; call prepare() first")
        try:
            self._step_inner()
        except HardwareException as exc:
            self._exception_log.append(exc)
            raise

    def _step_inner(self) -> None:
        pc = self.registers["PC"]
        self.mmu.check(pc, ACCESS_EXECUTE)
        word = self.memory.read(pc)
        instruction = decode(word)
        if instruction is None:
            raise IllegalOpcodeError(
                f"illegal opcode {word >> 24 & 0xFF:#04x} at address {pc:#x}",
                address=pc,
            )
        self.registers["PC"] = (pc + 1) & WORD_MASK
        self._execute(instruction)
        self.instruction_count += 1
        self.cycle_count += instruction.cycles

    def run(
        self, max_steps: int = 1_000_000, stop_on_exception: bool = True
    ) -> RunResult:
        start_steps = self.instruction_count
        start_cycles = self.cycle_count
        exception: Optional[HardwareException] = None
        while not self._halted and self.instruction_count - start_steps < max_steps:
            try:
                self.step()
            except HardwareException as exc:
                exception = exc
                if stop_on_exception:
                    break
        return RunResult(
            halted=self._halted,
            exception=exception,
            steps=self.instruction_count - start_steps,
            cycles=self.cycle_count - start_cycles,
        )

    def _execute(self, ins: Instruction) -> None:
        name = ins.mnemonic
        regs = self.registers
        if name == "NOP":
            return
        if name == "HALT":
            self._halted = True
            return
        if name == "MOVE":
            regs[register_name(ins.rd)] = regs[register_name(ins.ra)]
            return
        if name == "MOVEI":
            regs[register_name(ins.rd)] = ins.imm & WORD_MASK
            return
        if name == "MOVEHI":
            low = regs[register_name(ins.rd)] & 0xFFFF
            regs[register_name(ins.rd)] = ((ins.imm & 0xFFFF) << 16) | low
            return
        if name == "LOAD":
            address = (regs[register_name(ins.ra)] + ins.imm) & WORD_MASK
            self.mmu.check(address, ACCESS_READ)
            regs[register_name(ins.rd)] = self.memory.read(address)
            return
        if name == "STORE":
            address = (regs[register_name(ins.ra)] + ins.imm) & WORD_MASK
            self.mmu.check(address, ACCESS_WRITE)
            self.memory.write(address, regs[register_name(ins.rd)])
            return
        if name == "PUSH":
            sp = (regs["SP"] - 1) & WORD_MASK
            self.mmu.check(sp, ACCESS_WRITE)
            self.memory.write(sp, regs[register_name(ins.rd)])
            regs["SP"] = sp
            return
        if name == "POP":
            sp = regs["SP"]
            self.mmu.check(sp, ACCESS_READ)
            regs[register_name(ins.rd)] = self.memory.read(sp)
            regs["SP"] = (sp + 1) & WORD_MASK
            return
        if name in ("ADD", "SUB", "MUL", "DIV", "AND", "OR", "XOR"):
            a = regs[register_name(ins.ra)]
            b = regs[register_name(ins.rb)]
            regs[register_name(ins.rd)] = self._alu(name, a, b)
            return
        if name in ("ADDI", "SUBI", "MULI", "DIVI", "ANDI", "ORI", "XORI"):
            a = regs[register_name(ins.ra)]
            regs[register_name(ins.rd)] = self._alu(name[:-1], a, ins.imm & WORD_MASK)
            return
        if name == "SHL":
            a = regs[register_name(ins.ra)]
            regs[register_name(ins.rd)] = (a << (ins.imm & 31)) & WORD_MASK
            return
        if name == "SHR":
            a = regs[register_name(ins.ra)]
            regs[register_name(ins.rd)] = (a & WORD_MASK) >> (ins.imm & 31)
            return
        if name == "CMP":
            self._compare(regs[register_name(ins.ra)], regs[register_name(ins.rb)])
            return
        if name == "CMPI":
            self._compare(regs[register_name(ins.ra)], ins.imm & WORD_MASK)
            return
        if name in ("BRA", "BEQ", "BNE", "BLT", "BGE"):
            if self._branch_taken(name):
                regs["PC"] = (regs["PC"] + ins.imm) & WORD_MASK
            return
        if name == "JMP":
            regs["PC"] = regs[register_name(ins.ra)]
            return
        if name == "JSR":
            sp = (regs["SP"] - 1) & WORD_MASK
            self.mmu.check(sp, ACCESS_WRITE)
            self.memory.write(sp, regs["PC"])
            regs["SP"] = sp
            regs["PC"] = ins.imm & WORD_MASK
            return
        if name == "RTS":
            sp = regs["SP"]
            self.mmu.check(sp, ACCESS_READ)
            regs["PC"] = self.memory.read(sp)
            regs["SP"] = (sp + 1) & WORD_MASK
            return
        if name == "SIG":
            # Control-flow signature checkpoint (see repro.core.control_flow).
            self.signature = (self.signature * 31 + (ins.imm & 0xFFFF)) & WORD_MASK
            return
        raise ProgramError(f"decoder produced unexecutable instruction {ins}")

    def _alu(self, op: str, a: int, b: int) -> int:
        if op == "ADD":
            result = a + b
        elif op == "SUB":
            result = a - b
        elif op == "MUL":
            result = _to_signed(a) * _to_signed(b)
        elif op == "DIV":
            if (b & WORD_MASK) == 0:
                raise DivisionByZeroError("integer division by zero")
            result = int(_to_signed(a) / _to_signed(b))  # trunc toward zero
        elif op == "AND":
            result = a & b
        elif op == "OR":
            result = a | b
        elif op == "XOR":
            result = a ^ b
        else:  # pragma: no cover - exhaustive above
            raise ProgramError(f"unknown ALU op {op}")
        self.registers.update_arith_flags(result)
        return result & WORD_MASK

    def _compare(self, a: int, b: int) -> None:
        diff = _to_signed(a) - _to_signed(b)
        self.registers.set_flag(FLAG_ZERO, diff == 0)
        self.registers.set_flag(FLAG_NEGATIVE, diff < 0)

    def _branch_taken(self, name: str) -> bool:
        if name == "BRA":
            return True
        zero = self.registers.get_flag(FLAG_ZERO)
        negative = self.registers.get_flag(FLAG_NEGATIVE)
        return {
            "BEQ": zero,
            "BNE": not zero,
            "BLT": negative,
            "BGE": not negative,
        }[name]
