"""Property gate: lockstep batch execution is bit-identical to scalar.

Two layers, both driven by Hypothesis over seeded random inputs:

1. **Machine level** — random mini-ISA programs (branch-heavy, so faults
   force control-flow divergence and mid-cohort evictions) run as K lanes
   of one :class:`~repro.cpu.batch.BatchMachine` with a random register or
   memory bit flip per lane, against K independently built scalar
   :class:`~repro.cpu.machine.Machine` runs.  Registers, memory digest,
   instruction/cycle counts, signatures and the EDM exception log must
   match exactly.  A second program family loads, stores, pushes and
   flips at scattered addresses — the last word of memory, both sides of
   the ROM boundary, lane-dependent targets and data blocks wider than
   the initial lane memory — so the batch machine's address→column map
   and its growth are checked against the scalar sparse memory.

2. **Campaign level** — random E5-style fault lists (including permanent
   stuck-ats, which are not batchable and exercise the executor's
   mid-chunk scalar fallback, and post-completion faults that make lanes
   finish at different copy counts) run through
   :class:`~repro.faults.batch_campaign.BatchTemExecutor` against the
   scalar harness under per-trial metrics capture.  Records and metrics
   stable views must be bit-identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.batch import BatchMachine
from repro.cpu.isa import encode
from repro.cpu.machine import Machine
from repro.experiments.coverage_table import make_brake_workload
from repro.faults.batch_campaign import BatchTemExecutor, batchable
from repro.faults.campaign import TemInjectionHarness
from repro.faults.generators import random_fault
from repro.faults.types import FaultType
from repro.obs import metrics as obs_metrics

IN = 0x1800
DATA_WORDS = 8
MAX_STEPS = 5_000

_POOL = (
    "MOVEI", "MOVE", "ADD", "ADDI", "SUB", "SUBI", "MUL", "DIVI",
    "AND", "OR", "XOR", "SHL", "SHR", "CMP", "CMPI",
    "BEQ", "BNE", "BLT", "BGE", "LOAD", "STORE", "SIG",
)

_REGISTERS = tuple(f"D{i}" for i in range(8)) + ("A1", "A2", "PC", "SP", "SR")

#: The scratch area every program family loads from and stores to.
_DATA = tuple(IN + offset for offset in range(DATA_WORDS))

#: Footprint edges: last ROM word (stores raise), first RAM word, and the
#: top two words of memory (the first PUSH target with the default SP).
_EDGES = (0x0FFF, 0x1000, 0x3FFE, 0x3FFF)


def _random_program(rng, pool=_POOL, data=_DATA):
    """Branch-heavy random program ending in HALT (divergence-forcing)."""
    length = int(rng.integers(8, 32))
    words = []
    for index in range(length):
        mnemonic = pool[int(rng.integers(0, len(pool)))]
        rd = int(rng.integers(0, 16))
        ra = int(rng.integers(0, 16))
        rb = int(rng.integers(0, 16))
        if mnemonic in ("LOAD", "STORE"):
            ra = 8  # A0 is 0 unless flipped: address = imm
            imm = data[int(rng.integers(0, len(data)))]
        elif mnemonic in ("BEQ", "BNE", "BLT", "BGE"):
            imm = int(rng.integers(-min(index, 4), 4))
        elif mnemonic == "SIG":
            imm = int(rng.integers(0, 1000))
        else:
            imm = int(rng.integers(-0x8000, 0x8000))
        words.append(encode(mnemonic, rd=rd, ra=ra, imm=imm, rb=rb))
    words.append(encode("HALT"))
    return words


def _lane_flips(rng, lanes, code_words, registers=_REGISTERS, data=_DATA):
    """One optional pre-run flip per lane: register or ECC memory bit."""
    flips = []
    for _ in range(lanes):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            flips.append(None)
        elif kind == 1:
            name = registers[int(rng.integers(0, len(registers)))]
            bit = int(rng.integers(0, 16 if name == "PC" else 32))
            flips.append(("reg", name, bit))
        else:
            address = (
                int(rng.integers(0, code_words))
                if rng.integers(0, 2)
                else data[int(rng.integers(0, len(data)))]
            )
            flips.append(("mem", address, int(rng.integers(0, 32))))
    return flips


def _scalar_outcome(words, blocks, flip):
    machine = Machine()
    machine.memory.load_rom(0, list(words))
    machine.seal_rom()
    machine.prepare(0)
    for base, values in blocks:
        machine.write_words(base, values)
    if flip is not None:
        if flip[0] == "reg":
            machine.registers.flip_bit(flip[1], flip[2])
        else:
            machine.memory.flip_bit(flip[1], flip[2])
    machine.run(max_steps=MAX_STEPS, stop_on_exception=True)
    return _observe(machine)


def _observe(machine):
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
    }


def _assert_lanes_match_scalar(words, blocks, flips):
    """K lanes of one batch machine vs K independent scalar runs."""
    lanes = len(flips)
    expected = [_scalar_outcome(words, blocks, flip) for flip in flips]

    bm = BatchMachine(lanes)
    bm.load_rom(0, words)
    bm.seal_rom()
    bm.prepare(0)
    for base, values in blocks:
        bm.write_words(base, values)
    for lane, flip in enumerate(flips):
        if flip is None:
            continue
        if flip[0] == "reg":
            bm.flip_register(lane, flip[1], flip[2])
        else:
            bm.flip_memory_bit(lane, flip[1], flip[2])

    finished = {}
    for _ in range(MAX_STEPS):
        alive = bm.step()
        for lane in bm.pop_evicted():
            machine = bm.to_machine(lane)
            # The lane already retired copy_steps instructions in lockstep:
            # the scalar continuation gets only the *remaining* budget, so a
            # runaway lane stops at the same instruction as the reference.
            remaining = MAX_STEPS - int(bm.copy_steps[lane])
            if remaining > 0:
                machine.run(max_steps=remaining, stop_on_exception=True)
            finished[lane] = machine
        if not alive:
            break
    results = [
        _observe(finished.get(lane) or bm.to_machine(lane))
        for lane in range(lanes)
    ]
    assert results == expected


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_batch_lanes_match_independent_scalar_runs(seed):
    rng = np.random.default_rng(seed)
    words = _random_program(rng)
    lanes = int(rng.integers(2, 7))
    inputs = [int(v) for v in rng.integers(0, 2**32, size=DATA_WORDS)]
    flips = _lane_flips(rng, lanes, len(words))
    _assert_lanes_match_scalar(words, [(IN, inputs)], flips)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scattered_footprint_matches_independent_scalar_runs(seed):
    rng = np.random.default_rng(seed)
    # Data blocks at random RAM bases, together usually wider than the
    # batch machine's initial lane memory, so columns are mapped and the
    # array grows before and while the lanes run.
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, 48))
        base = int(rng.integers(0x1000, 0x4000 - size))
        blocks.append((base, [int(v) for v in rng.integers(0, 2**32, size=size)]))
    scattered = tuple(int(a) for a in rng.integers(0x1000, 0x4000, size=6))
    data = _DATA + _EDGES + scattered + tuple(base for base, _ in blocks)
    words = _random_program(rng, pool=_POOL + ("PUSH", "POP"), data=data)
    lanes = int(rng.integers(2, 7))
    # A0 flips make store targets lane-dependent: columns get mapped for
    # addresses only some lanes write.
    flips = _lane_flips(
        rng, lanes, len(words), registers=_REGISTERS + ("A0",), data=data
    )
    _assert_lanes_match_scalar(words, [(IN, list(range(DATA_WORDS)))] + blocks, flips)


# ----------------------------------------------------------------------
# Campaign level: the batch executor vs the scalar harness
# ----------------------------------------------------------------------

_WORKLOAD = make_brake_workload()
_HARNESS = TemInjectionHarness(_WORKLOAD)


def _random_fault_mix(rng, count):
    """E5-style fault list with scalar-fallback and divergence coverage."""
    code_size = 24
    faults = []
    for _ in range(count):
        fault_type = (
            FaultType.PERMANENT if rng.integers(0, 4) == 0 else FaultType.TRANSIENT
        )
        faults.append(
            random_fault(
                rng,
                max_step=max(_HARNESS.golden_steps * 2, 2),
                code_range=(0, code_size),
                data_range=(0x1800, 0x1902),
                fault_type=fault_type,
            )
        )
    return faults


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_batch_executor_matches_scalar_harness(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(4, 24))
    faults = _random_fault_mix(rng, count)

    scalar = []
    for fault in faults:
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.capture(registry):
            record = _HARNESS.run_experiment(fault)
        snap = registry.snapshot()
        scalar.append((record, snap if snap else None))

    batch = BatchTemExecutor(_HARNESS, batch=count).run_experiments(faults)

    assert [r.to_json() for r, _ in batch] == [r.to_json() for r, _ in scalar]
    assert [obs_metrics.stable_view(s) for _, s in batch] == [
        obs_metrics.stable_view(s) for _, s in scalar
    ]
    # The drawn mix must exercise the mid-chunk scalar fallback at least
    # some of the time; when it does, records still line up one-to-one.
    assert len(batch) == len(faults)


def test_permanent_faults_take_the_scalar_fallback():
    """Non-batchable faults are the executor's fallback path by design."""
    rng = np.random.default_rng(2005)
    faults = _random_fault_mix(rng, 50)
    assert any(not batchable(fault) for fault in faults)
    assert any(batchable(fault) for fault in faults)
