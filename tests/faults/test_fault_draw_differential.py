"""Differential gate: production fault draws equal ``Generator.choice`` draws.

:func:`repro.faults.generators.random_fault` and
:func:`~repro.faults.generators.random_fault_list` decode faults from one
``random_raw`` block of the bit generator, inverting the target CDF and
indexing the register tuples directly; the oracle in
``tests/oracles/reference_faults.py`` draws call by call through
``rng.random``/``rng.integers``/``rng.choice``.  Both must consume the
generator stream identically, so the fault lists — and the generator
state left behind, buffered 32-bit half included — match for every seed,
weight table and supported bit generator.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.generators import random_fault, random_fault_list
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


def _state(rng):
    """``rng.bit_generator.state`` with arrays (Philox, SFC64) as lists."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    return plain(rng.bit_generator.state)


def _list_draws(rng, count, weights=None, max_step=97, data_range=(0x1800, 0x1902)):
    """``(production list, reference list)`` from two copies of *rng*,
    plus the two generators afterwards."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    ranges = dict(code_range=(0, 23), data_range=data_range)
    production = random_fault_list(
        rng, count, max_step=max_step, weights=weights, **ranges
    )
    reference = [
        reference_faults.random_fault(
            twin, max_step=max_step, weights=weights, **ranges
        )
        for _ in range(count)
    ]
    return production, reference, rng, twin


@pytest.mark.parametrize("weights", [None, CUSTOM_WEIGHTS], ids=["default", "custom"])
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_generator_choice(seed, weights):
    production, state = _draws(random_fault, seed, weights)
    reference, reference_state = _draws(reference_faults.random_fault, seed, weights)
    assert production == reference
    assert state == reference_state


@pytest.mark.parametrize("weights", [None, CUSTOM_WEIGHTS], ids=["default", "custom"])
@pytest.mark.parametrize("seed", SEEDS)
def test_fault_list_matches_reference_loop(seed, weights):
    production, reference, rng, twin = _list_draws(
        np.random.default_rng(seed), 1900, weights
    )
    assert production == reference
    assert _state(rng) == _state(twin)


def test_fault_list_starts_from_a_buffered_half():
    rng = np.random.default_rng(2005)
    rng.integers(0, 5)  # one 32-bit draw: the word's high half stays buffered
    assert rng.bit_generator.state["has_uint32"] == 1
    production, reference, rng, twin = _list_draws(rng, 500)
    assert production == reference
    assert _state(rng) == _state(twin)


@pytest.mark.parametrize("max_step", [2**31 + 1, 2**31 - 1, 3 * 2**30, 2**32, 2**40 + 3])
def test_fault_list_matches_through_lemire_rejections(max_step):
    # A step span just over 2**31 rejects about half of the 32-bit draws
    # (threshold 2**32 % span); spans past 2**32 take numpy's 64-bit path.
    production, reference, rng, twin = _list_draws(
        np.random.default_rng(4711), 600, max_step=max_step
    )
    assert production == reference
    assert _state(rng) == _state(twin)


def test_fault_list_matches_when_rejections_outrun_the_block():
    # Every fault a data-memory strike with a rejecting step *and*
    # address span: ~3.5 words a fault, so the 3-per-fault block runs out
    # some 300 faults before the end.
    production, reference, rng, twin = _list_draws(
        np.random.default_rng(99), 2000,
        weights={FaultTarget.DATA_MEMORY: 1.0},
        max_step=2**31 + 1, data_range=(0, 2**31 + 1),
    )
    assert production == reference
    assert _state(rng) == _state(twin)


@pytest.mark.parametrize("count", [0, 1])
def test_fault_list_edge_counts(count):
    rng = np.random.default_rng(7)
    rng.integers(0, 5)
    production, reference, rng, twin = _list_draws(rng, count)
    assert production == reference
    assert len(production) == count
    assert _state(rng) == _state(twin)


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
)
@pytest.mark.parametrize("weights", [None, CUSTOM_WEIGHTS], ids=["default", "custom"])
def test_fault_list_matches_on_every_buffered_bit_generator(bit_generator, weights):
    for seed in SEEDS[:3]:
        rng = np.random.Generator(bit_generator(seed))
        production, reference, rng, twin = _list_draws(rng, 700, weights)
        assert production == reference
        assert _state(rng) == _state(twin)


def test_mt19937_is_refused_untouched():
    rng = np.random.Generator(np.random.MT19937(5))
    before = _state(rng)
    with pytest.raises(ConfigurationError, match="MT19937"):
        random_fault_list(rng, 10, 97, (0, 23), (0x1800, 0x1902))
    with pytest.raises(ConfigurationError, match="MT19937"):
        random_fault(rng, 97, (0, 23), (0x1800, 0x1902))
    assert _state(rng) == before


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
