"""Tests of the register file and the ECC memory model."""

import pytest

from repro.cpu.exceptions import BusError, EccUncorrectableError
from repro.cpu.memory import Memory
from repro.cpu.registers import (
    ALL_REGISTERS,
    FLAG_NEGATIVE,
    FLAG_ZERO,
    RegisterFile,
)
from repro.errors import MachineError


class TestRegisterFile:
    def test_read_write_truncates_to_32_bits(self):
        regs = RegisterFile()
        regs["D0"] = 0x1_FFFF_FFFF
        assert regs["D0"] == 0xFFFF_FFFF

    def test_unknown_register_rejected(self):
        regs = RegisterFile()
        with pytest.raises(MachineError):
            regs.read("D9")
        with pytest.raises(MachineError):
            regs.write("Q1", 0)

    def test_flip_bit_is_involution(self):
        regs = RegisterFile()
        regs["D3"] = 0b1010
        regs.flip_bit("D3", 1)
        assert regs["D3"] == 0b1000
        regs.flip_bit("D3", 1)
        assert regs["D3"] == 0b1010

    def test_flip_bit_out_of_range(self):
        regs = RegisterFile()
        with pytest.raises(MachineError):
            regs.flip_bit("D0", 32)

    def test_context_save_restore_round_trip(self):
        regs = RegisterFile()
        for index, name in enumerate(ALL_REGISTERS):
            regs[name] = index * 17
        context = regs.save_context()
        regs.reset()
        assert all(regs[name] == 0 for name in ALL_REGISTERS)
        regs.restore_context(context)
        for index, name in enumerate(ALL_REGISTERS):
            assert regs[name] == index * 17

    def test_context_is_immutable_snapshot(self):
        regs = RegisterFile()
        regs["D0"] = 5
        context = regs.save_context()
        regs["D0"] = 99
        assert context["D0"] == 5

    def test_flags(self):
        regs = RegisterFile()
        regs.update_arith_flags(0)
        assert regs.get_flag(FLAG_ZERO)
        regs.update_arith_flags(0x8000_0000)
        assert regs.get_flag(FLAG_NEGATIVE)
        assert not regs.get_flag(FLAG_ZERO)


class TestMemoryBasics:
    def test_read_back_written_word(self):
        memory = Memory(128)
        memory.write(5, 0xDEADBEEF)
        assert memory.read(5) == 0xDEADBEEF

    def test_unwritten_words_read_zero(self):
        memory = Memory(16)
        assert memory.read(3) == 0

    def test_out_of_bounds_is_bus_error(self):
        memory = Memory(16)
        with pytest.raises(BusError):
            memory.read(16)
        with pytest.raises(BusError):
            memory.write(-1, 0)

    def test_rom_sealing_blocks_writes(self):
        memory = Memory(64, rom_limit=8)
        memory.load_rom(0, [1, 2, 3])
        memory.seal_rom()
        with pytest.raises(BusError):
            memory.write(1, 9)
        memory.write(8, 9)  # RAM above rom_limit still writable
        with pytest.raises(MachineError):
            memory.load_rom(3, [4])

    def test_rom_image_must_fit(self):
        memory = Memory(64, rom_limit=4)
        with pytest.raises(MachineError):
            memory.load_rom(2, [1, 2, 3])


class TestEccModel:
    def test_single_bit_error_corrected_and_scrubbed(self):
        memory = Memory(16)
        memory.write(2, 0xF0)
        memory.flip_bit(2, 0)
        assert memory.peek(2) == 0xF1
        assert memory.read(2) == 0xF0  # corrected
        assert memory.ecc_stats.corrections == 1
        # Scrubbed: subsequent reads see the clean word without correction.
        assert memory.read(2) == 0xF0
        assert memory.ecc_stats.corrections == 1

    def test_double_bit_error_detected(self):
        memory = Memory(16)
        memory.write(2, 0)
        memory.flip_bit(2, 1)
        memory.flip_bit(2, 7)
        with pytest.raises(EccUncorrectableError):
            memory.read(2)
        assert memory.ecc_stats.detections == 1

    def test_triple_bit_error_is_silent_corruption(self):
        memory = Memory(16)
        memory.write(2, 0)
        for bit in (0, 1, 2):
            memory.flip_bit(2, bit)
        assert memory.read(2) == 0b111
        assert memory.ecc_stats.silent_corruptions == 1

    def test_write_clears_accumulated_errors(self):
        memory = Memory(16)
        memory.flip_bit(3, 4)
        memory.write(3, 42)
        assert memory.read(3) == 42
        assert memory.error_word_count() == 0

    def test_flip_same_bit_twice_cancels(self):
        memory = Memory(16)
        memory.flip_bit(3, 4)
        memory.flip_bit(3, 4)
        assert memory.error_word_count() == 0

    def test_ecc_disabled_returns_corrupted_value(self):
        memory = Memory(16, ecc_enabled=False)
        memory.write(2, 0)
        memory.flip_bit(2, 5)
        assert memory.read(2) == 32
        assert memory.ecc_stats.corrections == 0

    def test_clear_errors(self):
        memory = Memory(16)
        memory.flip_bit(1, 1)
        memory.flip_bit(2, 2)
        memory.clear_errors()
        assert memory.error_word_count() == 0
