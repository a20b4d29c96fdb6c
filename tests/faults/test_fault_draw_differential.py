"""Differential gate: production fault draws equal ``Generator.choice`` draws.

:func:`repro.faults.generators.random_fault` inverts the target CDF and
indexes the register tuples directly; the oracle in
``tests/oracles/reference_faults.py`` draws through ``rng.choice``.  Both
must consume the generator stream identically, so the fault lists — and
the generator state left behind — match for every seed and weight table.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.generators import random_fault
from repro.faults.types import FaultTarget, FaultType
from tests.oracles import reference_faults

SEEDS = (0, 7, 123, 2005, 4711, 2**32 - 1)

#: Uneven, unnormalised weights over a subset of the target classes.
CUSTOM_WEIGHTS = {
    FaultTarget.CODE_MEMORY: 3.0,
    FaultTarget.ADDRESS_REGISTER: 1.0,
    FaultTarget.DATA_REGISTER: 0.5,
    FaultTarget.STATUS_REGISTER: 0.25,
    FaultTarget.DATA_MEMORY: 2.0,
}


def _draws(draw, seed, weights, count=600):
    rng = np.random.default_rng(seed)
    faults = [
        draw(
            rng,
            max_step=97,
            code_range=(0, 23),
            data_range=(0x1800, 0x1902),
            weights=weights,
            fault_type=FaultType.PERMANENT if i % 5 == 0 else FaultType.TRANSIENT,
        )
        for i in range(count)
    ]
    return faults, rng.bit_generator.state


@pytest.mark.parametrize("weights", [None, CUSTOM_WEIGHTS], ids=["default", "custom"])
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_generator_choice(seed, weights):
    production, state = _draws(random_fault, seed, weights)
    reference, reference_state = _draws(reference_faults.random_fault, seed, weights)
    assert production == reference
    assert state == reference_state


def test_draws_reach_every_weighted_target_class():
    # The comparison above is only as strong as the branches it reaches.
    faults, _ = _draws(random_fault, 2005, None)
    assert {fault.target for fault in faults} == set(
        reference_faults.DEFAULT_TARGET_WEIGHTS
    )
    faults, _ = _draws(random_fault, 2005, CUSTOM_WEIGHTS)
    assert {fault.target for fault in faults} == set(CUSTOM_WEIGHTS)


@pytest.mark.parametrize(
    "weights",
    [{FaultTarget.PC: -1.0, FaultTarget.SP: 2.0}, {FaultTarget.PC: 0.0}],
    ids=["negative", "all-zero"],
)
def test_invalid_weights_rejected(weights):
    with pytest.raises(ConfigurationError):
        random_fault(np.random.default_rng(0), 10, (0, 5), (10, 20), weights=weights)
