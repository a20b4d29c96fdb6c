"""Differential gate: the production interpreter is bit-identical to the
reference oracle.

:class:`Machine` (each distinct word decoded once into a pre-specialised
operation held in a capped per-word memo, the fetch inlined into
:meth:`Machine.run`, batched counters) is only admissible because it is
*provably equivalent* to the reference interpreter kept in
``tests/oracles/reference_cpu.py``.  This suite drives both through the
same workloads — the stock campaign programs and seeded random mini-ISA
programs, clean and with injected register/memory bit flips, run in
chunks or single-stepped under stuck-at faults, and the random cases once
more with the memo cap shrunk so it is cleared mid-run — and asserts that
every architecturally visible outcome matches exactly: registers, memory
digest, instruction/cycle counts, control-flow signature, halt state and
the raised EDM exception class.
"""

import zlib

import numpy as np
import pytest

from repro.cpu import machine as machine_module
from repro.cpu.assembler import assemble
from repro.cpu.isa import encode
from repro.cpu.exceptions import HardwareException
from repro.cpu.machine import Machine, RunResult
from repro.cpu.mmu import Region
from repro.cpu.programs import PROGRAMS
from repro.errors import MachineHalted
from repro.faults.generators import random_fault
from repro.faults.injector import MachineFaultInjector
from repro.faults.types import FaultType

from tests.oracles.reference_cpu import ReferenceMachine

IN = 0x1800
OUT = 0x1900
MAX_STEPS = 20_000
DATA_WORDS = 8


def _build_machine(machine_cls, words):
    machine = machine_cls()
    machine.memory.load_rom(0, list(words))
    machine.seal_rom()
    machine.prepare(0)
    return machine


def _confine(machine, code_words):
    """Install task-style MMU regions (code rx / data rw / stack rw) and
    enter the task domain, as ``MachineExecutable`` does — so the
    production interpreter's inlined visible-region scan is exercised
    too."""
    machine.mmu.add_region(Region(
        base=0, size=max(1, code_words), permissions="rx",
        domain="task", name="code",
    ))
    machine.mmu.add_region(Region(
        base=IN, size=(OUT - IN) + DATA_WORDS, permissions="rw",
        domain="task", name="data",
    ))
    stack_words = 256
    machine.mmu.add_region(Region(
        base=machine.memory.size_words - stack_words, size=stack_words,
        permissions="rw", domain="task", name="stack",
    ))
    machine.mmu.enter_domain("task")


def _observe(machine, result):
    """Everything architecturally visible after a run, as one comparable
    value.  Exceptions compare by class and message (identity-less)."""

    def exc_key(exc):
        return None if exc is None else (type(exc).__name__, str(exc))

    return {
        "halted": result.halted,
        "steps": result.steps,
        "cycles": result.cycles,
        "exception": exc_key(result.exception),
        "context": machine.save_context(),
        "memory": machine.memory.state_digest(),
        "signature": machine.signature,
        "instruction_count": machine.instruction_count,
        "cycle_count": machine.cycle_count,
        "exception_log": [exc_key(e) for e in machine.exception_log],
        "ecc": (machine.memory.ecc_stats.corrections,
                machine.memory.ecc_stats.detections),
    }


def _execute(machine_cls, words, inputs=(), fault=None, confined=False):
    """One full run on *machine_cls*; injects *fault* at its ``at_step``
    boundary exactly like the campaign harness does."""
    machine = _build_machine(machine_cls, words)
    if inputs:
        machine.write_words(IN, [int(v) for v in inputs])
    if confined:
        _confine(machine, len(words))
    try:
        if fault is not None:
            pre = machine.run(max_steps=int(fault.at_step or 0),
                              stop_on_exception=True)
            if pre.exception is None and not pre.halted:
                MachineFaultInjector(machine).apply(fault)
                final = machine.run(max_steps=MAX_STEPS, stop_on_exception=True)
                final.steps += pre.steps
                final.cycles += pre.cycles
            else:
                final = pre
        else:
            final = machine.run(max_steps=MAX_STEPS, stop_on_exception=True)
    finally:
        machine.mmu.enter_kernel()
    return _observe(machine, final)


def _assert_paths_identical(words, inputs=(), fault=None, confined=False):
    reference = _execute(ReferenceMachine, words, inputs, fault, confined)
    production = _execute(Machine, words, inputs, fault, confined)
    assert production == reference
    return reference


# ----------------------------------------------------------------------
# Stock campaign workloads
# ----------------------------------------------------------------------

INPUT_SETS = {
    "pid_controller": [(500, 480, 10), (100, 900, -50 & 0xFFFF_FFFF), (0, 0, 0)],
    "fir_filter": [(10, 20, 30, 20, 10), (0, 0, 1000, 0, 0), (7, 7, 7, 7, 7)],
    "message_checksum": [(1, 2, 3, 4), (65_520, 65_520, 1, 0), (0, 0, 0, 0)],
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("confined", [False, True])
def test_stock_programs_clean(name, confined):
    program = PROGRAMS[name]
    words = assemble(program.source).words
    for inputs in INPUT_SETS[name]:
        outcome = _assert_paths_identical(words, inputs, confined=confined)
        assert outcome["halted"] and outcome["exception"] is None


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_stock_programs_with_bit_flips(name):
    """Seeded random register/memory flips injected mid-run: emergent
    behaviour (wrong results, EDM trips, runaway control flow) must be
    bit-identical on both paths."""
    program = PROGRAMS[name]
    words = assemble(program.source).words
    inputs = INPUT_SETS[name][0]
    clean = _execute(ReferenceMachine, words, inputs)
    max_step = max(1, clean["steps"])
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(40):
        fault = random_fault(
            rng, max_step,
            code_range=(0, len(words)),
            data_range=(IN, IN + len(inputs)),
        )
        _assert_paths_identical(words, inputs, fault=fault)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_stock_programs_confined_with_bit_flips(name):
    """Same flips under MMU confinement: corrupted PC/SP leaving the task's
    footprint must raise the identical MMU exception on both paths."""
    program = PROGRAMS[name]
    words = assemble(program.source).words
    inputs = INPUT_SETS[name][0]
    clean = _execute(ReferenceMachine, words, inputs, confined=True)
    max_step = max(1, clean["steps"])
    rng = np.random.default_rng(zlib.crc32((name + "/mmu").encode()))
    for _ in range(25):
        fault = random_fault(
            rng, max_step,
            code_range=(0, len(words)),
            data_range=(IN, IN + len(inputs)),
        )
        _assert_paths_identical(words, inputs, fault=fault, confined=True)


# ----------------------------------------------------------------------
# Seeded random mini-ISA programs
# ----------------------------------------------------------------------

_RANDOM_POOL = (
    "NOP", "MOVE", "MOVEI", "MOVEHI", "LOAD", "STORE", "PUSH", "POP",
    "ADD", "ADDI", "SUB", "SUBI", "MUL", "MULI", "DIV", "DIVI",
    "AND", "ANDI", "OR", "ORI", "XOR", "XORI", "SHL", "SHR",
    "CMP", "CMPI", "BEQ", "BNE", "BLT", "BGE", "SIG",
)


def _random_program(rng):
    """A random (but mostly well-formed) instruction stream ending in HALT.

    Loads/stores stay inside the data scratch area, branch offsets stay
    small; divisions and wild register mixes are allowed — any trap they
    cause must simply be the *same* trap on both paths.
    """
    length = int(rng.integers(8, 40))
    words = []
    for index in range(length):
        mnemonic = _RANDOM_POOL[int(rng.integers(0, len(_RANDOM_POOL)))]
        rd = int(rng.integers(0, 16))
        ra = int(rng.integers(0, 16))
        rb = int(rng.integers(0, 16))
        if mnemonic in ("LOAD", "STORE"):
            ra = 8  # A0 (reset to 0): address = imm, inside the scratch area
            imm = IN + int(rng.integers(0, DATA_WORDS))
        elif mnemonic in ("BEQ", "BNE", "BLT", "BGE"):
            imm = int(rng.integers(-min(index, 4), 4))
        elif mnemonic == "SIG":
            imm = int(rng.integers(0, 1000))
        else:
            imm = int(rng.integers(-0x8000, 0x8000))
        words.append(encode(mnemonic, rd=rd, ra=ra, imm=imm, rb=rb))
    words.append(encode("HALT"))
    return words


def test_random_programs_differential():
    rng = np.random.default_rng(20_050_628)
    for _ in range(30):
        words = _random_program(rng)
        _assert_paths_identical(words, inputs=tuple(
            int(v) for v in rng.integers(0, 2 ** 32, size=DATA_WORDS)
        ))


def test_random_programs_with_bit_flips():
    rng = np.random.default_rng(7)
    for _ in range(20):
        words = _random_program(rng)
        inputs = tuple(int(v) for v in rng.integers(0, 2 ** 16, size=DATA_WORDS))
        fault = random_fault(
            rng, 16,
            code_range=(0, len(words)),
            data_range=(IN, IN + DATA_WORDS),
        )
        _assert_paths_identical(words, inputs, fault=fault)


def test_raw_random_words_hit_identical_illegal_opcodes():
    """Fully random 32-bit words are mostly illegal opcodes — the CPU EDM
    must fire identically (class, message, step count) on both paths."""
    rng = np.random.default_rng(1_999)
    for _ in range(25):
        words = [int(w) for w in rng.integers(0, 2 ** 32, size=12)]
        outcome = _assert_paths_identical(words)
        assert outcome["exception"] is None or outcome["exception_log"]


@pytest.mark.parametrize("case", [
    test_random_programs_differential,
    test_random_programs_with_bit_flips,
    test_raw_random_words_hit_identical_illegal_opcodes,
], ids=lambda case: case.__name__.removeprefix("test_"))
def test_random_cases_with_memo_evictions(monkeypatch, case):
    """The random cases again with the decode memo capped at 8 words, so
    it is cleared over and over, mid-run included: an evicted word must
    decode to the same operation on its next fetch."""
    monkeypatch.setattr(machine_module, "_DECODE_CACHE_MAX", 8)
    machine_module._DECODE_CACHE.clear()
    case()
    assert len(machine_module._DECODE_CACHE) <= 8


# ----------------------------------------------------------------------
# Single stepping under stuck-at faults
# ----------------------------------------------------------------------

def _execute_stepped(machine_cls, words, inputs, fault, confined):
    """Step one instruction at a time, as the campaign harness does while
    a permanent fault is active: inject at ``at_step``, then re-assert the
    stuck-at bit after every step."""
    machine = _build_machine(machine_cls, words)
    machine.write_words(IN, [int(v) for v in inputs])
    if confined:
        _confine(machine, len(words))
    injector = MachineFaultInjector(machine)
    steps = 0
    exception = None
    try:
        while not machine.halted and steps < MAX_STEPS:
            if steps == fault.at_step:
                injector.apply(fault)
            try:
                machine.step()
            except HardwareException as exc:
                exception = exc
                break
            injector.reassert_permanent()
            steps += 1
        if machine.halted:
            with pytest.raises(MachineHalted):
                machine.step()
    finally:
        machine.mmu.enter_kernel()
    return _observe(machine, RunResult(
        halted=machine.halted, exception=exception,
        steps=machine.instruction_count, cycles=machine.cycle_count,
    ))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("confined", [False, True])
def test_single_step_with_permanent_faults(name, confined):
    """``Machine.step`` — the path a campaign copy runs while a stuck-at
    fault is active — matches the oracle step for step, exception log
    included."""
    words = assemble(PROGRAMS[name].source).words
    inputs = INPUT_SETS[name][0]
    clean = _execute(ReferenceMachine, words, inputs)
    rng = np.random.default_rng(zlib.crc32((name + "/stuck").encode()))
    for _ in range(15):
        fault = random_fault(
            rng, max(1, clean["steps"]),
            code_range=(0, len(words)),
            data_range=(IN, IN + len(inputs)),
            fault_type=FaultType.PERMANENT,
        )
        reference = _execute_stepped(ReferenceMachine, words, inputs, fault, confined)
        production = _execute_stepped(Machine, words, inputs, fault, confined)
        assert production == reference
