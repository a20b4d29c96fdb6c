"""Fault-list generation for injection campaigns.

Campaigns either sample faults *randomly* (statistical coverage estimation,
as in the heavy-ion and SWIFI studies the paper builds on [7, 8, 16]) or
*scan* a location/time cross-product exhaustively (for small targeted
studies and for tests).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..cpu.registers import ADDRESS_REGISTERS, DATA_REGISTERS
from ..errors import ConfigurationError
from .types import Fault, FaultTarget, FaultType

#: Default sampling weights over targets for random campaigns.  Roughly
#: area-proportional for a microcontroller-class device: most flips land in
#: registers/data during computation; the PC/SP are small but consequential.
DEFAULT_TARGET_WEIGHTS = {
    FaultTarget.DATA_REGISTER: 0.35,
    FaultTarget.ADDRESS_REGISTER: 0.15,
    FaultTarget.PC: 0.08,
    FaultTarget.SP: 0.07,
    FaultTarget.STATUS_REGISTER: 0.05,
    FaultTarget.CODE_MEMORY: 0.10,
    FaultTarget.DATA_MEMORY: 0.20,
}


def _normalised_table(table: dict) -> "tuple[list, np.ndarray]":
    """``(targets, cdf)`` of a target-weight table.

    *cdf* is exactly the table ``Generator.choice(n, p=...)`` inverts for
    the normalised weights, so ``cdf.searchsorted(rng.random(),
    side="right")`` consumes the same stream and draws the same index —
    without choice's per-call validation of ``p``, done here once instead.
    """
    targets = list(table)
    probabilities = np.array([table[t] for t in targets], dtype=float)
    if (probabilities < 0).any() or not probabilities.sum() > 0:
        raise ConfigurationError("target weights must be non-negative, not all zero")
    probabilities /= probabilities.sum()
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return targets, cdf


#: Pre-normalised table for the default weights — the per-fault
#: normalisation is pure overhead in large random campaigns.
_DEFAULT_TARGET_TABLE = _normalised_table(DEFAULT_TARGET_WEIGHTS)


def random_fault(
    rng: np.random.Generator,
    max_step: int,
    code_range: "tuple[int, int]",
    data_range: "tuple[int, int]",
    weights: Optional[dict] = None,
    fault_type: FaultType = FaultType.TRANSIENT,
) -> Fault:
    """Draw one random fault.

    Parameters
    ----------
    max_step:
        Injection step is uniform over [0, max_step).
    code_range / data_range:
        Half-open word-address ranges for memory targets.
    weights:
        Target-class weights (defaults to :data:`DEFAULT_TARGET_WEIGHTS`).
    """
    if max_step <= 0:
        raise ConfigurationError("max_step must be positive")
    if weights is None:
        targets, cdf = _DEFAULT_TARGET_TABLE
    else:
        targets, cdf = _normalised_table(weights)
    # The same draws Generator.choice makes (see _normalised_table).
    target = targets[int(cdf.searchsorted(rng.random(), side="right"))]
    bit = int(rng.integers(0, 32))
    step = int(rng.integers(0, max_step))
    register: Optional[str] = None
    address: Optional[int] = None
    if target is FaultTarget.DATA_REGISTER:
        register = DATA_REGISTERS[int(rng.integers(0, len(DATA_REGISTERS)))]
    elif target is FaultTarget.ADDRESS_REGISTER:
        register = ADDRESS_REGISTERS[int(rng.integers(0, len(ADDRESS_REGISTERS)))]
    elif target is FaultTarget.PC:
        register = "PC"
        # High PC bits almost always leave memory entirely; restrict to the
        # low bits so a mix of in-range and out-of-range jumps occurs.
        bit = int(rng.integers(0, 16))
    elif target is FaultTarget.SP:
        register = "SP"
        bit = int(rng.integers(0, 16))
    elif target is FaultTarget.STATUS_REGISTER:
        register = "SR"
        bit = int(rng.integers(0, 4))
    elif target is FaultTarget.CODE_MEMORY:
        address = int(rng.integers(code_range[0], max(code_range[0] + 1, code_range[1])))
    elif target is FaultTarget.DATA_MEMORY:
        address = int(rng.integers(data_range[0], max(data_range[0] + 1, data_range[1])))
    return Fault(
        fault_type=fault_type,
        target=target,
        register=register,
        address=address,
        bit=bit,
        at_step=step,
    )


def random_fault_list(
    rng: np.random.Generator,
    count: int,
    max_step: int,
    code_range: "tuple[int, int]",
    data_range: "tuple[int, int]",
    weights: Optional[dict] = None,
) -> List[Fault]:
    """Draw *count* independent random transient faults."""
    return [
        random_fault(rng, max_step, code_range, data_range, weights)
        for _ in range(count)
    ]


def register_scan(
    registers: Sequence[str],
    bits: Sequence[int],
    steps: Sequence[int],
    fault_type: FaultType = FaultType.TRANSIENT,
) -> Iterator[Fault]:
    """Exhaustive register x bit x step cross-product (targeted studies)."""

    def target_for(register: str) -> FaultTarget:
        if register == "PC":
            return FaultTarget.PC
        if register == "SP":
            return FaultTarget.SP
        if register == "SR":
            return FaultTarget.STATUS_REGISTER
        return FaultTarget.ADDRESS_REGISTER if register.startswith("A") else FaultTarget.DATA_REGISTER

    for register in registers:
        for bit in bits:
            for step in steps:
                yield Fault(
                    fault_type=fault_type,
                    target=target_for(register),
                    register=register,
                    bit=bit,
                    at_step=step,
                )


def critical_section_arrivals(
    rng: np.random.Generator,
    task,
    count: int,
    horizon: int,
) -> List[int]:
    """Fault-arrival ticks aimed *inside* a task's critical sections.

    Multicore campaigns need strikes that land while a copy holds (or is
    inside) a shared-resource critical section — the case where a classic
    lock's blocking time blows up and a lock-free attempt merely fails to
    commit (:mod:`repro.kernel.resources`).  For each arrival a job of
    *task* in ``[0, horizon)`` is drawn uniformly, then a tick uniform
    over that job's section windows ``[release + start, release + end)``
    (fault-free timing; under contention the section stretches, so the
    tick still lands in or before the section — never after it).

    Returns sorted absolute ticks.  The *task* must declare at least one
    critical section and one full period must fit in the horizon.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    windows = [(cs.start, cs.end) for cs in task.critical_sections]
    if not windows:
        raise ConfigurationError(
            f"task {task.name!r} has no critical sections to target"
        )
    jobs = horizon // task.period
    if jobs < 1:
        raise ConfigurationError("horizon shorter than one task period")
    lengths = np.array([end - start for start, end in windows], dtype=float)
    weights = lengths / lengths.sum()
    ticks: List[int] = []
    for _ in range(count):
        job = int(rng.integers(0, jobs))
        window = windows[int(rng.choice(len(windows), p=weights))]
        offset = int(rng.integers(window[0], window[1]))
        ticks.append(job * task.period + task.offset + offset)
    ticks.sort()
    return ticks


def memory_scan(
    addresses: Sequence[int],
    bits: Sequence[int],
    steps: Sequence[int],
    code_limit: int,
) -> Iterator[Fault]:
    """Exhaustive memory-word scan; classifies code vs data by address."""
    for address in addresses:
        target = FaultTarget.CODE_MEMORY if address < code_limit else FaultTarget.DATA_MEMORY
        for bit in bits:
            for step in steps:
                yield Fault(
                    fault_type=FaultType.TRANSIENT,
                    target=target,
                    address=address,
                    bit=bit,
                    at_step=step,
                )
