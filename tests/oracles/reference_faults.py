"""Random fault draws through ``Generator.choice``: the stream to match.

Production (:func:`repro.faults.generators.random_fault`) inverts the
target CDF and indexes the register tuples itself, skipping choice's
per-call validation.  These are the straightforward draws it replaced;
for every seed and weight table the two must produce identical faults.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cpu.registers import ADDRESS_REGISTERS, DATA_REGISTERS
from repro.errors import ConfigurationError
from repro.faults.generators import DEFAULT_TARGET_WEIGHTS
from repro.faults.types import Fault, FaultTarget, FaultType


def random_fault(
    rng: np.random.Generator,
    max_step: int,
    code_range: "tuple[int, int]",
    data_range: "tuple[int, int]",
    weights: Optional[dict] = None,
    fault_type: FaultType = FaultType.TRANSIENT,
) -> Fault:
    """Draw one random fault with ``rng.choice`` (same parameters)."""
    if max_step <= 0:
        raise ConfigurationError("max_step must be positive")
    table = DEFAULT_TARGET_WEIGHTS if weights is None else weights
    targets = list(table)
    probabilities = np.array([table[t] for t in targets], dtype=float)
    probabilities /= probabilities.sum()
    target = targets[int(rng.choice(len(targets), p=probabilities))]
    bit = int(rng.integers(0, 32))
    step = int(rng.integers(0, max_step))
    register: Optional[str] = None
    address: Optional[int] = None
    if target is FaultTarget.DATA_REGISTER:
        register = str(rng.choice(DATA_REGISTERS))
    elif target is FaultTarget.ADDRESS_REGISTER:
        register = str(rng.choice(ADDRESS_REGISTERS))
    elif target is FaultTarget.PC:
        register = "PC"
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
