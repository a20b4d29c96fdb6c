"""Property gate: golden-trace replay gives exactly what simulation gives.

Random branch-heavy mini-ISA programs (the generator of
``test_batch_differential.py``) become TEM workloads whose outputs are the
whole scratch data block, so a flip that reaches any stored word shows.
Only two of the eight words are inputs: the rest carry over from copy to
copy.  Half of the programs start by incrementing the last data word, so
their fault-free copies never agree and the job runs a comparison, a
third copy, an (m,k) miss or an omission — the replay must follow that
job, not assume two golden copies, and a faulty copy that leaves the
counter where the golden copy did must not be mistaken for a different
one.  The copy cap, the deadline factor and an optional prefilled (m,k)
window vary too.

For every fault of a random mix (transient and permanent flips over
registers, PC, code and data words, arrivals up to twice the golden
length), :meth:`TemInjectionHarness.settle_or_run` — a settle for a dead
fault, a resume-and-reconverge replay for a live transient one, a full
simulation for a permanent one — must give the record, metrics stable
view and window end state of :meth:`TemInjectionHarness.run_experiment`.
A replay stops simulating once a copy ends with the golden value on every
word the later golden copies read first; it must never simulate a copy
after one that ended in exactly the golden memory words and ECC error
bits, the stricter rule it replaced.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cpu.assembler import AssembledProgram
from repro.cpu.isa import encode
from repro.cpu.machine import Machine
from repro.errors import ConfigurationError
from repro.faults.campaign import (
    _NO_FAULT,
    TemInjectionHarness,
    TemWorkload,
    _GoldenJob,
    _SteppedTem,
)
from repro.kernel.task import MachineExecutable, MKWindow, WeaklyHardConstraint
from repro.obs import metrics as obs_metrics
from tests.property.test_batch_differential import (
    DATA_WORDS,
    IN,
    MAX_STEPS,
    _random_fault_mix,
    _random_program,
)

#: ``mem[IN + 7] += 1``: each copy returns a different data block.
_COUNTER = (
    encode("LOAD", rd=0, ra=8, imm=IN + DATA_WORDS - 1),
    encode("ADDI", rd=0, ra=0, imm=1),
    encode("STORE", rd=0, ra=8, imm=IN + DATA_WORDS - 1),
)


def _workload(words, inputs, max_copies, deadline_factor):
    program = AssembledProgram(words=list(words), labels={}, origin=0)

    def factory():
        return MachineExecutable(
            Machine(), program, input_base=IN, output_base=IN,
            input_count=len(inputs), output_count=DATA_WORDS, max_steps=MAX_STEPS,
        )

    return TemWorkload(
        executable_factory=factory, inputs=inputs,
        max_copies=max_copies, deadline_factor=deadline_factor,
    )


def _captured(run, window):
    with obs_metrics.capture() as registry:
        record = run(window)
    state = None if window is None else (tuple(window._history), window.misses)
    return record.to_json(), obs_metrics.stable_view(registry.snapshot()), state


def _golden_memories(harness):
    """The memory words and ECC error bits after each golden copy."""
    stepper = harness._stepper(_NO_FAULT)
    memory = stepper.executable.machine.memory
    states = []
    with obs_metrics.capture():
        for copy_index in range(harness.workload.max_copies):
            stepper.execute_copy(copy_index)
            states.append((
                dict(memory._clean),
                {address: set(bits) for address, bits in memory._error_bits.items()},
            ))
    return states


@contextlib.contextmanager
def _ends_in_golden_memory(golden):
    """Per copy a replay runs on the CPU, in order: whether it ended in
    exactly the golden memory of *golden*."""
    copy, ended = [], []
    execute_copy, run_copy = _GoldenJob.execute_copy, _SteppedTem.run_copy

    def spy_execute(job, copy_index):
        copy.append(copy_index)
        return execute_copy(job, copy_index)

    def spy_run(stepper, steps_this_copy):
        reply = run_copy(stepper, steps_this_copy)
        if copy:  # a replayed job, not run_experiment
            memory = stepper.executable.machine.memory
            ended.append((memory._clean, memory._error_bits) == golden[copy[-1]])
        return reply

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_GoldenJob, "execute_copy", spy_execute)
        patch.setattr(_SteppedTem, "run_copy", spy_run)
        yield ended


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_every_fault_replays_to_the_simulated_record(seed):
    rng = np.random.default_rng(seed)
    words = _random_program(rng)
    if rng.integers(0, 2):
        words = [*_COUNTER, *words]
    inputs = tuple(int(v) for v in rng.integers(0, 2**32, size=2))
    max_copies = int(rng.integers(1, 5))
    deadline_factor = float(rng.choice([0.5, 1.0, 2.0, 3.3]))
    try:
        harness = TemInjectionHarness(
            _workload(words, inputs, max_copies, deadline_factor)
        )
    except ConfigurationError:
        assume(False)  # the golden copy itself traps or never halts
    # No window, or a (1,4) window that may or may not absorb a miss.
    history = None if rng.integers(0, 3) == 0 else tuple(
        int(b) for b in rng.random(3) < 0.3
    )

    def window():
        if history is None:
            return None
        return MKWindow(WeaklyHardConstraint(max_misses=1, window_jobs=4), history)

    faults = _random_fault_mix(
        rng, 24, harness=harness, code_size=len(words),
        data_range=(IN, IN + DATA_WORDS),
    )
    golden = _golden_memories(harness)
    for fault in faults:
        simulated = _captured(lambda w: harness.run_experiment(fault, w), window())
        with _ends_in_golden_memory(golden) as ended:
            replayed = _captured(lambda w: harness.settle_or_run(fault, w), window())
        assert replayed == simulated, fault.describe()
        assert True not in ended[:-1], fault.describe()
