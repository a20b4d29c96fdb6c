"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro import runtime

from repro.cpu.assembler import assemble
from repro.cpu.machine import Machine
from repro.kernel.task import CallableExecutable, Criticality, MachineExecutable, TaskSpec
from repro.models import BbwParameters
from repro.sim import Simulator, TraceRecorder


@pytest.fixture
def run_config():
    """Activate ``RunConfig(**fields)`` for the rest of the test.

    The campaign supervisor reads ``timeout_s``, ``progress``, ``profile``
    and ``chaos`` from the active run context; a test sets them here.
    """
    with contextlib.ExitStack() as stack:

        def activate(**fields) -> runtime.RunContext:
            context = runtime.RunContext(runtime.RunConfig(**fields))
            stack.enter_context(runtime.activate(context))
            return context

        yield activate


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def trace() -> TraceRecorder:
    return TraceRecorder(enabled=True)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def paper_params() -> BbwParameters:
    return BbwParameters.paper()


#: A tiny deterministic program: out = (in0 + in1) * 3, with SIG checkpoints.
TINY_PROGRAM = """
start:  SIG 5
        LOAD  D0, A0, 0x1800
        LOAD  D1, A0, 0x1801
        ADD   D2, D0, D1
        MULI  D2, D2, 3
        SIG 9
        STORE D2, A0, 0x1900
        HALT
"""

TINY_CHECKPOINTS = (5, 9)


@pytest.fixture
def tiny_program():
    return assemble(TINY_PROGRAM)


@pytest.fixture
def machine_executable_factory(tiny_program):
    def factory() -> MachineExecutable:
        return MachineExecutable(
            Machine(), tiny_program, input_count=2, output_count=1
        )

    return factory


@pytest.fixture
def simple_task() -> TaskSpec:
    return TaskSpec(name="ctrl", period=10_000, wcet=1_000, priority=0)


@pytest.fixture
def simple_executable() -> CallableExecutable:
    return CallableExecutable(lambda inputs: (sum(inputs) + 1,), 1_000)


@pytest.fixture
def noncritical_task() -> TaskSpec:
    return TaskSpec(
        name="diag", period=50_000, wcet=5_000, priority=5,
        criticality=Criticality.NON_CRITICAL,
    )
