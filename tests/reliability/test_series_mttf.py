"""Tests of the series (product-chain) MTTF of independent absorbing chains.

``series_mean_time_to_absorption`` solves the MTTF of an OR fault tree over
independent CTMCs on the Kronecker-sum transient generator.  Three checks:

* on random chain pairs it equals ``MarkovChain.mttf()`` of the explicitly
  built product chain (rate-0 transitions included, so each chain's own
  failure states must be used);
* on every BBW configuration it matches the quadrature of ``R_CU * R_WN``;
* it rejects chains whose failure states cannot be reached.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, NotAbsorbingError
from repro.models import NODE_TYPES, MODES, BbwParameters, build_bbw_system
from repro.reliability import (
    MarkovChain,
    mttf_from_reliability,
    series_mean_time_to_absorption,
)
from repro.units import HOURS_PER_YEAR

RELATIVE = 1e-9

rates = st.floats(min_value=1e-2, max_value=10.0, allow_nan=False)


@st.composite
def absorbing_chains(draw, tag):
    """A random chain whose failure states are reachable from every state.

    The first ``n_absorbing`` states only carry explicit rate-0 exits, so
    they are absorbing although they have outgoing transitions; each
    transient state has a positive edge into one of them.
    """
    n_states = draw(st.integers(min_value=2, max_value=5))
    n_absorbing = draw(st.integers(min_value=1, max_value=n_states - 1))
    states = [f"{tag}{i}" for i in range(n_states)]
    chain = MarkovChain(states, name=tag)
    for source, target in itertools.permutations(states, 2):
        if states.index(source) < n_absorbing:
            if draw(st.booleans()):
                chain.add_transition(source, target, 0.0)
        else:
            chain.add_transition(source, target, draw(st.one_of(st.just(0.0), rates)))
    for source in states[n_absorbing:]:
        target = states[draw(st.integers(min_value=0, max_value=n_absorbing - 1))]
        chain.add_transition(source, target, draw(rates))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n_states, max_size=n_states))
    # At least some initial mass on a transient state.
    weights[-1] += 0.5
    total = sum(weights)
    chain.set_initial({s: w / total for s, w in zip(states, weights)})
    return chain


def product_chain(a: MarkovChain, b: MarkovChain) -> MarkovChain:
    """The explicit series product: state ``(x, y)`` fails when either side
    is absorbing in its own chain."""
    failed_a, failed_b = set(a.absorbing_states()), set(b.absorbing_states())
    states = [(x, y) for x in a.states for y in b.states]
    chain = MarkovChain([f"{x}|{y}" for x, y in states], name=f"{a.name}x{b.name}")
    for x, y in states:
        if x in failed_a or y in failed_b:
            continue
        for t in a.transitions:
            if t.source == x:
                chain.add_transition(f"{x}|{y}", f"{t.target}|{y}", t.rate)
        for t in b.transitions:
            if t.source == y:
                chain.add_transition(f"{x}|{y}", f"{x}|{t.target}", t.rate)
    pa, pb = a.initial_distribution, b.initial_distribution
    chain.set_initial(
        {
            f"{x}|{y}": pa[a.state_index(x)] * pb[b.state_index(y)]
            for x, y in states
        }
    )
    return chain


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=absorbing_chains("a"), b=absorbing_chains("b"))
def test_series_mttf_equals_explicit_product_chain(a, b):
    expected = product_chain(a, b).mttf()
    assert series_mean_time_to_absorption([a, b]) == pytest.approx(
        expected, rel=RELATIVE
    )
    assert series_mean_time_to_absorption([a]) == pytest.approx(a.mttf(), rel=RELATIVE)


@pytest.mark.parametrize(
    "params",
    [
        BbwParameters.paper(),
        BbwParameters.paper().with_coverage(0.9).with_transient_scale(3.0),
    ],
    ids=["paper", "coverage0.9-scale3"],
)
@pytest.mark.parametrize("node_type", NODE_TYPES)
@pytest.mark.parametrize("mode", MODES)
def test_bbw_mttf_matches_quadrature(params, node_type, mode):
    model = build_bbw_system(params, node_type, mode)
    exact = series_mean_time_to_absorption([model.central_unit, model.wheel_subsystem])
    integrated = mttf_from_reliability(model.reliability, horizon=80 * HOURS_PER_YEAR)
    assert model.mttf_hours() == exact
    assert abs(exact - integrated) <= RELATIVE * integrated


def _unreachable_failure(name):
    # "F" is absorbing but nothing leads to it; rates of 1.0 keep the
    # singular transient block exactly singular in floating point.
    chain = MarkovChain(["up", "down", "F"], name=name)
    chain.add_transition("up", "down", 1.0)
    chain.add_transition("down", "up", 1.0)
    chain.set_initial("up")
    return chain


@pytest.mark.parametrize("partner", [None, "unreachable", "absorbing"])
def test_unreachable_failure_states_raise(partner):
    chains = [_unreachable_failure("a")]
    if partner == "unreachable":
        chains.append(_unreachable_failure("b"))
    elif partner == "absorbing":
        absorbing = MarkovChain(["up", "F"], name="b")
        absorbing.add_transition("up", "F", 0.5)
        chains.append(absorbing)
    with pytest.raises(NotAbsorbingError):
        series_mean_time_to_absorption(chains)


def test_chain_without_failure_states_or_empty_series_raises():
    repairable = MarkovChain(["up", "down"], name="repairable")
    repairable.add_transition("up", "down", 0.5)
    repairable.add_transition("down", "up", 2.0)
    with pytest.raises(NotAbsorbingError):
        series_mean_time_to_absorption([repairable])
    with pytest.raises(ModelError):
        series_mean_time_to_absorption([])
