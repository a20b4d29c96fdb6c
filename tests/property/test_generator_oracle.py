"""Property tests: the stacked generator builder against the per-transition oracle.

``MarkovChain`` stores its transitions as index tuples and builds Q with
:func:`repro.reliability.ctmc.generator_stack`, one pass over a whole batch
of chains.  Over random chains — 1 to 6 states, several transitions on one
pair, zero rates, chains with no absorbing state, non-unit initial
distributions, and batches whose chains add their transitions in different
orders — these tests check, bit for bit (``tobytes``, so signed zeros
count):

1. ``generator_matrix()`` and every slice of ``generator_stack`` equal
   ``reference_ctmc.generator_matrix``, the transition-by-transition loop;
2. every row of ``reliability_batch`` equals ``chain.reliability(t)``,
   which exercises the one stacked ``pi0 @ expm(Q t)`` product with
   initial distributions other than a unit vector.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import MarkovChain, reliability_batch
from repro.reliability.ctmc import generator_stack

from tests.oracles import reference_ctmc

rates = st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=10.0))
times = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=20.0))


@st.composite
def edges(draw, n_states):
    """``(i, j, rate)`` triples; pairs repeat, and a positive-rate ring over
    every state (when drawn) leaves the chain with no absorbing state."""
    pairs = [(i, j) for i in range(n_states) for j in range(n_states) if i != j]
    if not pairs:
        return []
    drawn = draw(st.lists(st.tuples(st.sampled_from(pairs), rates), max_size=12))
    result = [(i, j, rate) for (i, j), rate in drawn]
    if draw(st.booleans()):
        ring = draw(
            st.lists(st.floats(min_value=1e-3, max_value=5.0),
                     min_size=n_states, max_size=n_states)
        )
        result += [(i, (i + 1) % n_states, rate) for i, rate in enumerate(ring)]
    return draw(st.permutations(result))


@st.composite
def initial_distributions(draw, n_states):
    weights = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0),
                 min_size=n_states, max_size=n_states)
    )
    if sum(weights) <= 0.0:
        weights[0] = 1.0
    total = sum(weights)
    return [w / total for w in weights]


def _chain(states, transitions, initial, name=""):
    chain = MarkovChain(states, name=name)
    for i, j, rate in transitions:
        chain.add_transition(states[i], states[j], rate, label=f"{i}->{j}")
    chain.set_initial(dict(zip(states, initial)))
    return chain


@st.composite
def chain_batches(draw):
    """1-4 chains over one state list.  Each redraws the rates of a shared
    edge list (zeros included), may drop or repeat edges, and adds them
    in its own order."""
    n_states = draw(st.integers(min_value=1, max_value=6))
    states = [f"s{i}" for i in range(n_states)]
    shared = draw(edges(n_states))
    batch = []
    for c in range(draw(st.integers(min_value=1, max_value=4))):
        own = [(i, j, draw(rates)) for i, j, _ in shared]
        own = draw(st.lists(st.sampled_from(own), max_size=len(own) + 3)) if own else []
        if draw(st.booleans()):
            own = own + draw(edges(n_states))
        initial = draw(initial_distributions(n_states))
        batch.append(_chain(states, draw(st.permutations(own)), initial, name=f"c{c}"))
    return batch


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(batch=chain_batches())
def test_generators_equal_the_per_transition_oracle(batch):
    stack = generator_stack(batch)
    n = len(batch[0].states)
    assert stack.shape == (len(batch), n, n)
    for c, chain in enumerate(batch):
        expected = reference_ctmc.generator_matrix(chain)
        assert _bits(chain.generator_matrix()) == _bits(expected)
        assert _bits(stack[c]) == _bits(expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(batch=chain_batches(), grid=st.lists(times, min_size=1, max_size=3))
def test_batch_rows_equal_point_reliability_for_non_unit_pi0(batch, grid):
    failure = [batch[0].states[-1]]
    rows = reliability_batch(batch, grid, failure)
    for row, chain in zip(rows, batch):
        expected = [chain.reliability(t, failure) for t in grid]
        assert _bits(row) == _bits(expected)
    if all(chain.absorbing_states() for chain in batch):
        rows = reliability_batch(batch, grid)
        for row, chain in zip(rows, batch):
            assert _bits(row) == _bits([chain.reliability(t) for t in grid])
