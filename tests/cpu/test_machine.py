"""Tests of the machine executor: semantics, EDMs, emergent fault effects."""

import pytest

from repro.cpu.assembler import assemble
from repro.cpu.exceptions import (
    BusError,
    DivisionByZeroError,
    IllegalOpcodeError,
)
from repro.cpu.machine import Machine
from repro.errors import MachineHalted

DATA = 0x1800
OUT = 0x1900


def run_program(source: str, max_steps: int = 10_000) -> Machine:
    machine = Machine()
    machine.load_program(assemble(source))
    machine.seal_rom()
    machine.prepare(0)
    result = machine.run(max_steps=max_steps)
    if result.exception is not None:
        raise result.exception
    return machine


class TestArithmetic:
    def test_add_mul(self):
        machine = run_program(
            f"MOVEI D0, 6\nMOVEI D1, 7\nMUL D2, D0, D1\nSTORE D2, A0, {OUT}\nHALT\n"
        )
        assert machine.read_words(OUT, 1) == [42]

    def test_signed_division_truncates_toward_zero(self):
        machine = run_program(
            f"MOVEI D0, -7\nMOVEI D1, 2\nDIV D2, D0, D1\nSTORE D2, A0, {OUT}\nHALT\n"
        )
        assert machine.read_words(OUT, 1) == [(-3) & 0xFFFF_FFFF]

    def test_division_by_zero_traps(self):
        with pytest.raises(DivisionByZeroError):
            run_program("MOVEI D0, 1\nMOVEI D1, 0\nDIV D2, D0, D1\nHALT\n")

    def test_logic_and_shifts(self):
        machine = run_program(
            "MOVEI D0, 0xF0\nMOVEI D1, 0x3C\n"
            "AND D2, D0, D1\nOR D3, D0, D1\nXOR D4, D0, D1\n"
            "SHL D5, D0, 4\nSHR D6, D0, 4\n"
            f"STORE D2, A0, {OUT}\nSTORE D3, A0, {OUT + 1}\nSTORE D4, A0, {OUT + 2}\n"
            f"STORE D5, A0, {OUT + 3}\nSTORE D6, A0, {OUT + 4}\nHALT\n"
        )
        assert machine.read_words(OUT, 5) == [0x30, 0xFC, 0xCC, 0xF00, 0x0F]

    def test_movehi_builds_32_bit_constants(self):
        machine = run_program(
            f"MOVEI D0, 0x1234\nMOVEHI D0, 0xABCD\nSTORE D0, A0, {OUT}\nHALT\n"
        )
        assert machine.read_words(OUT, 1) == [0xABCD_1234]


class TestControlFlow:
    def test_loop_accumulates(self):
        machine = run_program(
            f"""
            MOVEI D0, 0
            MOVEI D1, 5
            loop: ADD D0, D0, D1
                  SUBI D1, D1, 1
                  CMPI D1, 0
                  BNE loop
            STORE D0, A0, {OUT}
            HALT
            """
        )
        assert machine.read_words(OUT, 1) == [15]

    def test_jsr_rts(self):
        machine = run_program(
            f"""
            start: JSR double
                   STORE D0, A0, {OUT}
                   HALT
            double: MOVEI D0, 21
                    ADD D0, D0, D0
                    RTS
            """
        )
        assert machine.read_words(OUT, 1) == [42]

    def test_push_pop(self):
        machine = run_program(
            f"MOVEI D0, 77\nPUSH D0\nMOVEI D0, 0\nPOP D1\nSTORE D1, A0, {OUT}\nHALT\n"
        )
        assert machine.read_words(OUT, 1) == [77]

    def test_signature_accumulates(self):
        machine = run_program("SIG 3\nSIG 4\nHALT\n")
        assert machine.signature == 3 * 31 + 4

    def test_run_without_halt_exhausts_steps(self):
        machine = Machine()
        machine.load_program(assemble("loop: BRA loop\n"))
        machine.seal_rom()
        machine.prepare(0)
        result = machine.run(max_steps=100)
        assert not result.halted
        assert result.exception is None
        assert result.steps == 100

    def test_step_after_halt_raises(self):
        machine = run_program("HALT\n")
        with pytest.raises(MachineHalted):
            machine.step()


class TestEmergentFaultBehaviour:
    """Bit flips produce the paper's EDM taxonomy without scripting."""

    def test_opcode_corruption_raises_illegal_opcode(self):
        machine = Machine()
        machine.load_program(assemble("NOP\nNOP\nHALT\n"))
        # Corrupt instruction 1's opcode byte beyond the populated range
        # (3 flips: SEC-DED cannot correct, aliasing modelled as silent).
        for bit in (31, 30, 29):
            machine.memory.flip_bit(1, bit)
        machine.prepare(0)
        result = machine.run()
        assert isinstance(result.exception, IllegalOpcodeError)

    def test_pc_corruption_leaves_memory_as_bus_error(self):
        machine = Machine()
        machine.load_program(assemble("NOP\nHALT\n"))
        machine.seal_rom()
        machine.prepare(0)
        machine.registers.flip_bit("PC", 20)  # jump far outside memory
        result = machine.run()
        assert isinstance(result.exception, BusError)

    def test_sp_corruption_breaks_stack_access(self):
        machine = Machine()
        machine.load_program(assemble("MOVEI D0, 1\nPUSH D0\nHALT\n"))
        machine.seal_rom()
        machine.prepare(0)
        machine.registers.flip_bit("SP", 18)  # SP now far out of range
        result = machine.run()
        assert isinstance(result.exception, BusError)

    def test_data_register_flip_corrupts_result_silently(self):
        source = f"MOVEI D0, 100\nADDI D1, D0, 1\nSTORE D1, A0, {OUT}\nHALT\n"
        machine = Machine()
        machine.load_program(assemble(source))
        machine.seal_rom()
        machine.prepare(0)
        machine.step()  # MOVEI executed
        machine.registers.flip_bit("D0", 3)
        result = machine.run()
        assert result.ok
        assert machine.read_words(OUT, 1) != [101]

    def test_exception_log_records_edm_activity(self):
        machine = Machine()
        machine.load_program(assemble("MOVEI D1, 0\nDIV D0, D0, D1\nHALT\n"))
        machine.seal_rom()
        machine.prepare(0)
        machine.run()
        assert len(machine.exception_log) == 1
        assert machine.exception_log[0].mechanism == "divide_by_zero"


class TestContextHandling:
    def test_context_restore_recovers_from_register_fault(self):
        """The paper's recovery for CPU-detected errors: restore the full
        context from the TCB and re-run."""
        source = f"MOVEI D0, 5\nADDI D0, D0, 1\nSTORE D0, A0, {OUT}\nHALT\n"
        machine = Machine()
        machine.load_program(assemble(source))
        machine.seal_rom()
        machine.prepare(0)
        saved = machine.save_context()
        machine.registers.flip_bit("PC", 15)
        result = machine.run()
        assert result.exception is not None
        machine.restore_context(saved)
        result = machine.run()
        assert result.ok
        assert machine.read_words(OUT, 1) == [6]


class TestClone:
    def _used_machine(self) -> Machine:
        """A machine with state in every component: run to a trap under an
        MMU domain, with a latent memory error and ECC activity."""
        from repro.cpu.mmu import Region

        machine = Machine()
        machine.load_program(assemble(
            f"MOVEI D0, 3\nSTORE D0, A0, {OUT}\nSIG 5\nMOVEI D1, 0\nDIV D0, D0, D1\nHALT\n"
        ))
        machine.seal_rom()
        machine.mmu.add_region(Region(base=0, size=16, permissions="rx", domain="task"))
        machine.mmu.add_region(Region(base=OUT, size=4, permissions="rw", domain="task"))
        machine.memory.write(DATA, 77)
        machine.memory.flip_bit(DATA, 3)
        machine.memory.flip_bit(OUT + 1, 4)
        machine.read_words(DATA, 1)  # one ECC correction
        machine.prepare(0)
        machine.mmu.enter_domain("task")
        assert machine.run().exception is not None
        return machine

    @staticmethod
    def _state(machine: Machine):
        memory, mmu = machine.memory, machine.mmu
        return (
            machine.save_context(), memory.state_digest(), memory._rom_sealed,
            (memory.ecc_stats.corrections, memory.ecc_stats.detections),
            list(mmu._regions), mmu.domain, mmu.violations,
            machine.instruction_count, machine.cycle_count, machine.signature,
            machine.halted,
            [(type(e).__name__, str(e)) for e in machine.exception_log],
        )

    def test_clone_copies_every_component(self):
        machine = self._used_machine()
        twin = machine.clone()
        assert type(twin) is Machine
        assert self._state(twin) == self._state(machine)
        assert twin.memory.rom_limit == machine.memory.rom_limit
        assert twin.memory.ecc_enabled == machine.memory.ecc_enabled
        assert twin.mmu.enabled == machine.mmu.enabled

    def test_clone_is_independent(self):
        machine = self._used_machine()
        before = self._state(machine)
        twin = machine.clone()
        twin.registers.flip_bit("D0", 1)
        twin.memory.write(DATA + 2, 5)
        twin.memory.flip_bit(OUT + 1, 7)
        twin.memory.ecc_stats.corrections += 1
        twin.mmu.add_region(twin.mmu.regions_for("task")[0])
        twin.mmu.enter_kernel()
        twin.mmu.violations += 1
        twin.prepare(0)
        assert twin.run().exception is not None
        assert len(twin.exception_log) == 2
        assert self._state(machine) == before

    def test_clone_runs_like_the_original(self):
        machine = self._used_machine()
        machine.mmu.enter_kernel()
        twin = machine.clone()
        for m in (machine, twin):
            m.prepare(0)
            m.registers["D1"] = 0
        results = [m.run() for m in (machine, twin)]
        assert results[0].steps == results[1].steps > 0
        assert results[0].exception is not results[1].exception
        assert self._state(machine) == self._state(twin)
