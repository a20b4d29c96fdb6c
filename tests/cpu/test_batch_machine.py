"""Unit tests for the lockstep batch machine (``repro.cpu.batch``).

The contract under test (module docstring of :mod:`repro.cpu.batch`): K
lanes stepped in lockstep are bit-identical to K scalar machines — data
divergence is handled with per-lane masks, control-flow divergence evicts
the lane to a scalar continuation, and :meth:`BatchMachine.to_machine` /
:meth:`BatchMachine.adopt` carry every piece of job-persistent state.
The broad randomized equivalence lives in
``tests/property/test_batch_differential.py``; these tests pin the
individual mechanisms (eviction, ECC fetch semantics, materialisation,
footprint-sized lane memory, validation).
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.cpu.assembler import assemble
from repro.cpu.batch import BatchMachine
from repro.cpu.exceptions import EccUncorrectableError
from repro.cpu.machine import Machine
from repro.errors import MachineError
from repro.experiments.coverage_table import e5_fault_payloads, make_brake_workload
from repro.faults.batch_campaign import BatchTemExecutor
from repro.faults.campaign import TemInjectionHarness

IN = 0x1800
OUT = 0x1900
MAX_STEPS = 5_000

#: Loop + compare + load/store + signature updates: every mechanism the
#: cohort must keep in lockstep, and branches for faults to diverge on.
PROGRAM = assemble(
    """
start:  SIG 11
        LOAD  D0, A0, 0x1800
        LOAD  D1, A0, 0x1801
        MOVEI D2, 0
        MOVEI D3, 4
loop:   ADD   D2, D2, D0
        SUBI  D3, D3, 1
        CMPI  D3, 0
        BNE   loop
        CMP   D2, D1
        BLT   small
        SUB   D2, D2, D1
small:  SIG 13
        STORE D2, A0, 0x1900
        HALT
"""
)

INPUTS = (250, 600)


def _fresh_batch(lanes, **kwargs):
    bm = BatchMachine(lanes, **kwargs)
    bm.load_program(PROGRAM)
    bm.seal_rom()
    bm.prepare(PROGRAM.origin)
    bm.write_words(IN, INPUTS)
    return bm


def _snapshot(machine):
    """Everything job-persistent and architecturally visible, comparable."""
    return {
        "context": machine.save_context(),
        "memory": machine.memory.state_digest(),
        "signature": machine.signature,
        "instructions": machine.instruction_count,
        "cycles": machine.cycle_count,
        "halted": machine._halted,
        "log": [(type(e).__name__, str(e)) for e in machine.exception_log],
        "ecc": (
            machine.memory.ecc_stats.corrections,
            machine.memory.ecc_stats.detections,
            machine.memory.ecc_stats.silent_corruptions,
        ),
        "mmu_violations": machine.mmu.violations,
    }


def _drive(bm):
    """Run the cohort dry, finishing evicted lanes on the scalar path.

    Returns one scalar :class:`Machine` per lane — materialised at the end
    for lockstep lanes, the scalar continuation for evicted ones — so the
    caller compares uniform snapshots.
    """
    finished = {}
    for _ in range(MAX_STEPS):
        alive = bm.step()
        for lane in bm.pop_evicted():
            machine = bm.to_machine(lane)
            # Budget parity with the scalar reference: the lane already
            # retired copy_steps instructions in lockstep.
            remaining = MAX_STEPS - int(bm.copy_steps[lane])
            if remaining > 0:
                machine.run(max_steps=remaining, stop_on_exception=True)
            finished[lane] = machine
        if not alive:
            break
    for lane in range(bm.lanes):
        if lane not in finished:
            finished[lane] = bm.to_machine(lane)
    return [finished[lane] for lane in range(bm.lanes)]


def _scalar_reference(bm, lane):
    """Scalar run of *lane*'s exact pre-run state (post-injection)."""
    machine = bm.to_machine(lane)
    machine.run(max_steps=MAX_STEPS, stop_on_exception=True)
    return machine


class TestLockstepEquivalence:
    def test_clean_cohort_matches_scalar(self):
        bm = _fresh_batch(5)
        expected = _snapshot(_scalar_reference(_fresh_batch(1), 0))
        for machine in _drive(bm):
            snap = _snapshot(machine)
            assert snap == expected
            assert snap["halted"]
        assert not bm.evicted.any()

    def test_register_faults_diverge_and_match_scalar(self):
        # Lane 0 pristine; the others flip bits that perturb the loop
        # counter, the comparison operand, the PC and the SP — the last two
        # force control-flow divergence and an eviction mid-run.
        flips = [None, ("D3", 1), ("D1", 31), ("PC", 2), ("SP", 0)]
        reference = _fresh_batch(len(flips))
        for lane, flip in enumerate(flips):
            if flip is not None:
                reference.flip_register(lane, *flip)
        expected = [
            _snapshot(_scalar_reference(reference, lane))
            for lane in range(len(flips))
        ]

        bm = _fresh_batch(len(flips))
        for lane, flip in enumerate(flips):
            if flip is not None:
                bm.flip_register(lane, *flip)
        results = [_snapshot(machine) for machine in _drive(bm)]
        assert results == expected
        assert bm.evicted.any(), "a PC flip must evict its lane"

    def test_injected_lane_never_serves_as_reference(self):
        # With a pristine lane present, a faulted majority must not drag
        # the cohort onto its divergent path: flip the same PC bit in every
        # lane but one — the pristine lane stays, the others evict.
        bm = _fresh_batch(4)
        for lane in (1, 2, 3):
            bm.flip_register(lane, "PC", 3)
        _drive(bm)
        assert not bm.evicted[0]
        assert bm.evicted[[1, 2, 3]].all()


class TestEccFetchSemantics:
    def test_correctable_code_fault_scrubbed_once(self):
        bm = _fresh_batch(3)
        bm.flip_memory_bit(1, 2, 0)  # single-bit error on one code word
        expected = _snapshot(_scalar_reference(_fresh_batch(1), 0))
        machines = _drive(bm)
        snap = _snapshot(machines[1])
        # The corrected fetch leaves the lane bit-identical to clean runs
        # except for the correction counter, and the error bit is gone.
        assert snap["ecc"] == (1, 0, 0)
        assert {**snap, "ecc": expected["ecc"]} == expected
        assert not bm.error_bits[1]
        assert _snapshot(machines[0]) == expected

    def test_double_bit_data_fault_raises_like_scalar(self):
        reference = _fresh_batch(2)
        reference.flip_memory_bit(1, IN, 3)
        reference.flip_memory_bit(1, IN, 7)
        expected = _snapshot(_scalar_reference(reference, 1))

        bm = _fresh_batch(2)
        bm.flip_memory_bit(1, IN, 3)
        bm.flip_memory_bit(1, IN, 7)
        machines = _drive(bm)
        snap = _snapshot(machines[1])
        assert snap == expected
        assert snap["log"], "uncorrectable ECC must be logged"
        assert snap["log"][-1][0] == EccUncorrectableError.__name__
        assert not snap["halted"]

    def test_ecc_disabled_fetches_corrupted_word(self):
        reference = _fresh_batch(2, ecc_enabled=False)
        reference.flip_memory_bit(1, IN, 5)
        expected = _snapshot(_scalar_reference(reference, 1))

        bm = _fresh_batch(2, ecc_enabled=False)
        bm.flip_memory_bit(1, IN, 5)
        machines = _drive(bm)
        snap = _snapshot(machines[1])
        assert snap == expected
        assert snap["ecc"] == (0, 0, 0)


class TestMaterialisation:
    def test_to_machine_and_adopt_roundtrip(self):
        bm = _fresh_batch(3)
        bm.run(6)  # partway through the job
        before = _snapshot(bm.to_machine(1))
        machine = bm.to_machine(1)
        bm.adopt(1, machine)
        after = _snapshot(bm.to_machine(1))
        assert after == before
        assert not bm.active[1]  # adopted lanes wait for the next prepare

    def test_adopted_lane_rejoins_lockstep(self):
        bm = _fresh_batch(2)
        machines = _drive(bm)
        bm.adopt(0, machines[0])
        bm.adopt(1, machines[1])
        bm.prepare(PROGRAM.origin)
        for machine in _drive(bm):
            assert machine._halted
            # Cumulative counters keep growing across adopted copies.
            assert machine.instruction_count == 2 * machines[0].instruction_count

    def test_to_machine_matches_fresh_scalar_before_run(self):
        bm = _fresh_batch(2)
        scalar = Machine()
        scalar.memory.load_rom(0, list(PROGRAM.words))
        scalar.seal_rom()
        scalar.prepare(PROGRAM.origin)
        scalar.write_words(IN, INPUTS)
        assert _snapshot(bm.to_machine(0)) == _snapshot(scalar)


class TestFootprintMemory:
    def test_lane_memory_is_sized_to_the_footprint(self):
        bm = _fresh_batch(4)
        _drive(bm)
        # ROM image, two inputs, one output: nowhere near the address space.
        assert bm.mem.shape[1] < bm.memory_words // 100
        assert bm.peek(0, OUT) == bm.to_machine(0).memory.peek(OUT)
        assert bm.peek(0, OUT + 1) == 0  # never written: the zero column

    def test_growth_keeps_every_word(self):
        bm = BatchMachine(3)
        addresses = [bm.memory_words - 1 - 7 * i for i in range(300)]
        for n, address in enumerate(addresses):
            bm.write_words(address, [n + 1], lanes=[n % 3])
        assert bm.mem.shape[1] > 300  # doubled past the initial width
        for n, address in enumerate(addresses):
            assert [bm.peek(lane, address) for lane in range(3)] == [
                n + 1 if lane == n % 3 else 0 for lane in range(3)
            ]
        clean = bm.to_machine(1).memory._clean
        assert list(clean) == sorted(clean)  # rebuilt in address order
        assert clean == {a: n + 1 for n, a in enumerate(addresses) if n % 3 == 1}

    def test_block_read_matches_per_word_peek(self):
        bm = _fresh_batch(3)
        _drive(bm)
        block = bm.peek_words([2, 0], IN, 4)
        assert block.tolist() == [
            [bm.peek(lane, IN + offset) for offset in range(4)] for lane in (2, 0)
        ]

    def test_dropped_machine_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            bm = _fresh_batch(2)
            _drive(bm)
            ref = weakref.ref(bm)
            del bm
            assert ref() is None
        finally:
            gc.enable()

    def test_campaign_memory_stays_footprint_sized(self):
        harness = TemInjectionHarness(make_brake_workload())
        faults = [fault for _, fault in e5_fault_payloads(2_000, seed=2005)]
        executor = BatchTemExecutor(harness, batch=1024)
        executor.run_experiments(faults[:8])  # warm imports and caches
        tracemalloc.start()
        try:
            executor.run_experiments(faults)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A dense (1024, 16384) int64 lane memory alone is 128 MiB.
        assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestValidation:
    def test_rejects_nonpositive_lane_count(self):
        with pytest.raises(MachineError):
            BatchMachine(0)

    def test_rejects_unknown_register(self):
        bm = _fresh_batch(1)
        with pytest.raises(MachineError):
            bm.flip_register(0, "D9", 0)

    def test_rejects_bit_out_of_range(self):
        bm = _fresh_batch(1)
        with pytest.raises(MachineError):
            bm.flip_register(0, "D0", 32)
        with pytest.raises(MachineError):
            bm.flip_memory_bit(0, IN, -1)

    def test_rejects_rom_load_after_seal(self):
        bm = _fresh_batch(1)
        with pytest.raises(MachineError):
            bm.load_rom(0, [0])
