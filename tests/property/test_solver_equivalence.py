"""Property tests: CTMC solver equivalence across methods and oracles.

Four independent claims, over randomly generated generator matrices:

1. the three transient solvers (matrix exponential, uniformization,
   Kolmogorov ODE) agree within solver tolerance and always return a
   probability distribution;
2. the production solvers (:mod:`repro.reliability.solvers`) return
   *bit-identical* results to the per-point oracle
   (``tests/oracles/reference_ctmc.py``) for point solves, and stay within
   1e-9 of it on dense grids (step-matrix propagation) — with repeat calls
   bit-identical to the first;
3. invalid inputs (negative times, empty grids) are rejected with the
   same :class:`ModelError` by production and oracle;
4. the batched sweep solver (:func:`repro.reliability.reliability_batch`)
   is bit-identical to per-chain ``expm`` point solves, failure states
   included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.reliability import (
    MarkovChain,
    reliability_batch,
    transient_distribution,
    transient_distributions,
)

from tests.oracles import reference_ctmc

rates = st.floats(min_value=1e-4, max_value=10.0, allow_nan=False)
#: t = 0 is a meaningful boundary, but *denormal*-tiny positive times make
#: the LSODA reference integrator's step-size control crawl forever — they
#: are numerically meaningless inputs, not a solver property worth testing.
times = st.one_of(
    st.just(0.0), st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)
)


@st.composite
def chains(draw, n_states=None):
    if n_states is None:
        n_states = draw(st.integers(min_value=2, max_value=5))
    count = n_states * (n_states - 1)
    rate_list = draw(
        st.lists(st.one_of(st.just(0.0), rates), min_size=count, max_size=count)
    )
    states = [f"s{i}" for i in range(n_states)]
    chain = MarkovChain(states)
    index = 0
    for i in range(n_states):
        for j in range(n_states):
            if i != j:
                if rate_list[index] > 0:
                    chain.add_transition(states[i], states[j], rate_list[index])
                index += 1
    chain.set_initial(states[0])
    return chain


@st.composite
def chain_batches(draw):
    """1-4 chains over the same state list, as a parameter sweep has."""
    n_states = draw(st.integers(min_value=2, max_value=5))
    count = draw(st.integers(min_value=1, max_value=4))
    return [draw(chains(n_states)) for _ in range(count)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(chain=chains(), t=times)
def test_three_methods_agree_and_are_distributions(chain, t):
    results = {
        method: transient_distribution(chain, t, method=method)
        for method in ("expm", "uniformization", "ode")
    }
    for method, pi in results.items():
        assert np.all(pi >= 0.0), method
        assert pi.sum() == pytest.approx(1.0, abs=1e-8), method
    assert np.allclose(results["expm"], results["uniformization"], atol=1e-5)
    assert np.allclose(results["expm"], results["ode"], atol=1e-4)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(chain=chains(), t=times)
@pytest.mark.parametrize("method", ["expm", "uniformization", "ode"])
def test_point_solve_fast_is_bit_identical_to_reference(method, chain, t):
    reference = reference_ctmc.transient_distribution(chain, t, method=method)
    first = transient_distribution(chain, t, method=method)
    again = transient_distribution(chain, t, method=method)
    assert np.array_equal(first, reference)
    assert np.array_equal(again, first)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(chain=chains(), horizon=st.floats(min_value=0.5, max_value=20.0))
def test_grid_solve_fast_matches_reference(chain, horizon):
    grid = list(np.linspace(0.0, horizon, 31))
    reference = reference_ctmc.transient_distributions(chain, grid, method="expm")
    first = transient_distributions(chain, grid, method="expm")
    again = transient_distributions(chain, grid, method="expm")
    assert np.allclose(first, reference, atol=1e-9)
    assert np.allclose(first.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(again, first)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(batch=chain_batches(), grid=st.lists(times, min_size=1, max_size=3))
def test_batch_solve_equals_point_solves(batch, grid):
    failure = [batch[0].states[-1]]
    explicit = [[chain.reliability(t, failure) for t in grid] for chain in batch]
    assert np.array_equal(reliability_batch(batch, grid, failure), explicit)
    # Default failure states are each chain's own absorbing states.
    if all(chain.absorbing_states() for chain in batch):
        default = [[chain.reliability(t) for t in grid] for chain in batch]
        assert np.array_equal(reliability_batch(batch, grid), default)
    else:
        with pytest.raises(ModelError):
            reliability_batch(batch, grid)


@pytest.mark.parametrize("production", [False, True])
def test_invalid_inputs_rejected_on_both_paths(production):
    chain = MarkovChain(["up", "down"])
    chain.add_transition("up", "down", 1e-3)
    chain.set_initial("up")
    point, grid = (
        (transient_distribution, transient_distributions) if production else
        (reference_ctmc.transient_distribution, reference_ctmc.transient_distributions)
    )
    with pytest.raises(ModelError):
        point(chain, -1.0)
    with pytest.raises(ModelError):
        grid(chain, [0.0, 1.0, -2.0])
    with pytest.raises(ModelError):
        grid(chain, [])
    with pytest.raises(ModelError):
        point(chain, 1.0, method="laplace")
