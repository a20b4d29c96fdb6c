"""Property tests: CTMC solver equivalence across methods and oracles.

Five independent claims, over randomly generated generator matrices:

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
   included;
5. production's row-wise ``_clip``, run once on a stacked grid or batch,
   is bit-identical to the oracle's one-vector copy applied row by row —
   near-distributions with entries at the 1e-15 and -1e-9 thresholds
   included — and raises the same :class:`ModelError` when any row is
   bad; the ``expm`` grid keeps ``t == 0`` rows exactly ``pi0`` for
   duplicate and unsorted times, and the ``ode`` grid clips its rows as
   the oracle does, except the ``t == 0`` row, which is ``pi0``;
6. for every method, grid rows and point solves at ``t == 0`` are
   exactly the initial distribution, also when it is not a unit vector.
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
from repro.reliability.solvers import _clip, _ode

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


@settings(max_examples=50, deadline=None, derandomize=True)
@given(batch=chain_batches(), grid=st.lists(times, min_size=1, max_size=3), data=st.data())
def test_batch_failure_mass_adds_in_the_point_paths_order(batch, grid, data):
    """Several failure states in any order: float addition is not
    associative, so the batch must add them in the order the caller gave."""
    states = data.draw(st.permutations(batch[0].states))
    failure = states[: data.draw(st.integers(min_value=1, max_value=len(states)))]
    explicit = [[chain.reliability(t, failure) for t in grid] for chain in batch]
    assert np.array_equal(reliability_batch(batch, grid, failure), explicit)


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


#: Near-distribution entries: probability mass, round-off within 1e-15 of
#: zero (signed zeros and subnormals included), small negatives the clamp
#: absorbs, and the exact threshold values on both sides.
entries = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1e-15, max_value=1e-15),
    st.floats(min_value=-1e-9, max_value=0.0),
    st.sampled_from([
        1e-15, -1e-15, float(np.nextafter(1e-15, 0.0)), float(np.nextafter(-1e-15, 0.0)),
        -1e-9, float(np.nextafter(-1e-9, -1.0)),
    ]),
)


@st.composite
def near_distribution_stacks(draw):
    """A ``(T, n)`` stack; n reaches past 8 so pairwise summation blocks run."""
    n = draw(st.integers(min_value=1, max_value=20))
    rows = draw(st.integers(min_value=1, max_value=6))
    return np.array(
        [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(rows)]
    )


def _bits(array):
    return array.shape, array.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stack=near_distribution_stacks())
def test_clip_on_stacked_rows_equals_oracle_row_by_row(stack):
    try:
        expected = np.vstack([reference_ctmc.clip(row) for row in stack])
    except ModelError:
        with pytest.raises(ModelError):
            _clip(stack)
        return
    assert _bits(_clip(stack)) == _bits(expected)
    for row, want in zip(stack, expected):
        assert _bits(_clip(row)) == _bits(want)


@pytest.mark.parametrize(
    "bad", [[0.5, -2e-9, 0.5], [0.0, 1e-16, -1e-16]], ids=["negative", "all-zero"]
)
def test_clip_batch_with_one_bad_row_raises(bad):
    good = [0.2, 0.3, 0.5]
    with pytest.raises(ModelError):
        reference_ctmc.clip(bad)
    with pytest.raises(ModelError):
        _clip(np.array([good, bad, good]))
    assert _bits(_clip(np.array([good, good]))[1]) == _bits(reference_ctmc.clip(good))


@st.composite
def shuffled_grids(draw):
    """Unsorted grids with ``t == 0`` and at least one duplicate time."""
    base = draw(st.lists(times, min_size=1, max_size=6))
    return draw(st.permutations(base + [0.0, base[0]]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    chain=chains(),
    weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5),
    grid=shuffled_grids(),
)
def test_expm_grid_keeps_pi0_rows_for_zero_duplicate_unsorted_times(chain, weights, grid):
    n = len(chain.states)
    mass = np.array([1.0, *weights[: n - 1]])
    mass[-1] = 1e-17 if n > 1 else mass[-1]  # below the clamp threshold
    chain.set_initial(dict(zip(chain.states, mass / mass.sum())))
    pi0 = chain.initial_distribution
    got = transient_distributions(chain, grid, method="expm")
    reference = reference_ctmc.transient_distributions(chain, grid, method="expm")
    assert got.shape == (len(grid), n)
    for t, row, want in zip(grid, got, reference):
        if t == 0.0:
            assert _bits(row) == _bits(pi0)
        assert np.allclose(row, want, atol=1e-9)
        assert _bits(row) == _bits(got[grid.index(t)])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(chain=chains(), horizon=st.floats(min_value=0.5, max_value=20.0))
def test_ode_grid_clips_rows_as_the_oracle_does(chain, horizon):
    grid = list(np.linspace(0.0, horizon, 7))
    raw = _ode(chain.initial_distribution, chain.generator_matrix(), grid)
    expected = np.vstack([reference_ctmc.clip(row) for row in raw])
    expected[0] = chain.initial_distribution  # t == 0: pi0 exactly, as a point solve
    got = transient_distributions(chain, grid, method="ode")
    assert _bits(got) == _bits(expected)
    reference = reference_ctmc.transient_distributions(chain, grid, method="ode")
    assert np.allclose(got, reference, atol=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    chain=chains(),
    weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4),
    method=st.sampled_from(["expm", "uniformization", "ode"]),
    horizon=st.floats(min_value=0.5, max_value=20.0),
)
def test_zero_time_rows_are_exactly_pi0_for_every_method(chain, weights, method, horizon):
    n = len(chain.states)
    mass = np.array([1.0, *weights[: n - 1]])
    chain.set_initial(dict(zip(chain.states, mass / mass.sum())))
    pi0 = chain.initial_distribution
    got = transient_distributions(chain, [0.0, horizon / 4, horizon], method=method)
    assert _bits(got[0]) == _bits(pi0)
    assert _bits(transient_distribution(chain, 0.0, method=method)) == _bits(pi0)
