"""Property-based tests (hypothesis) of the reliability engine."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import BbwParameters, build_bbw_system
from repro.reliability import MarkovChain
from tests.oracles import reference_ctmc
from tests.oracles.reference_rbd import (
    Exponential,
    KofN,
    KofNHeterogeneous,
    Parallel,
    Series,
)

rates = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
small_times = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


def random_chain(draw, n_states: int, rate_list) -> MarkovChain:
    states = [f"s{i}" for i in range(n_states)]
    chain = MarkovChain(states)
    index = 0
    for i in range(n_states):
        for j in range(n_states):
            if i != j and index < len(rate_list) and rate_list[index] > 0:
                chain.add_transition(states[i], states[j], rate_list[index])
            index += 1
    chain.set_initial(states[0])
    return chain


@st.composite
def chains(draw):
    n_states = draw(st.integers(min_value=2, max_value=5))
    count = n_states * (n_states - 1)
    rate_list = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=count, max_size=count,
        )
    )
    return random_chain(draw, n_states, rate_list)


class TestCtmcProperties:
    @given(chain=chains(), t=small_times)
    @settings(max_examples=60, deadline=None)
    def test_transient_distribution_is_a_distribution(self, chain, t):
        probs = chain.transient_distribution(t)
        assert abs(probs.sum() - 1.0) < 1e-8
        assert (probs >= -1e-12).all()

    @given(chain=chains(), t=st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_solvers_agree(self, chain, t):
        expm_result = chain.transient_distribution(t)
        uni_result = reference_ctmc.transient_distribution(
            chain, t, method="uniformization"
        )
        assert np.allclose(expm_result, uni_result, atol=1e-6)

    @given(chain=chains())
    @settings(max_examples=60, deadline=None)
    def test_generator_rows_sum_to_zero(self, chain):
        q = chain.generator_matrix()
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-12)

    @given(
        lam=rates,
        t1=st.floats(min_value=0.0, max_value=50.0),
        dt=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_absorbing_chain_reliability_monotone(self, lam, t1, dt):
        chain = MarkovChain(["up", "failed"])
        chain.add_transition("up", "failed", lam)
        chain.set_initial("up")
        assert chain.reliability(t1) >= chain.reliability(t1 + dt) - 1e-9


class TestRbdProperties:
    @given(lams=st.lists(rates, min_size=1, max_size=5), t=times)
    @settings(max_examples=80, deadline=None)
    def test_series_not_better_than_best_component(self, lams, t):
        components = [Exponential(lam) for lam in lams]
        series = Series(components)
        best = max(c.reliability(t) for c in components)
        worst = min(c.reliability(t) for c in components)
        assert series.reliability(t) <= worst + 1e-12
        assert series.reliability(t) <= best + 1e-12

    @given(lams=st.lists(rates, min_size=1, max_size=5), t=times)
    @settings(max_examples=80, deadline=None)
    def test_parallel_not_worse_than_best_component(self, lams, t):
        components = [Exponential(lam) for lam in lams]
        parallel = Parallel(components)
        best = max(c.reliability(t) for c in components)
        assert parallel.reliability(t) >= best - 1e-12

    @given(
        lam=rates, t=times,
        k=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=4, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_k_of_n_monotone_in_k(self, lam, t, k, n):
        weaker = KofN(k, n, Exponential(lam))
        stronger = KofN(k + 1, n, Exponential(lam))
        assert weaker.reliability(t) >= stronger.reliability(t) - 1e-12

    @given(lams=st.lists(rates, min_size=2, max_size=5), t=times)
    @settings(max_examples=60, deadline=None)
    def test_heterogeneous_k_of_n_bounds(self, lams, t):
        blocks = [Exponential(lam) for lam in lams]
        n = len(blocks)
        one_of_n = KofNHeterogeneous(1, blocks)
        n_of_n = KofNHeterogeneous(n, blocks)
        assert abs(one_of_n.reliability(t) - Parallel(blocks).reliability(t)) < 1e-9
        assert abs(n_of_n.reliability(t) - Series(blocks).reliability(t)) < 1e-9


class TestBbwModelProperties:
    @given(
        coverage=st.floats(min_value=0.5, max_value=1.0),
        scale=st.floats(min_value=0.1, max_value=100.0),
        t=st.floats(min_value=0.0, max_value=10_000.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_nlft_never_worse_than_fs(self, coverage, scale, t):
        params = BbwParameters.paper().with_coverage(coverage).with_transient_scale(scale)
        for mode in ("full", "degraded"):
            fs = build_bbw_system(params, "fs", mode).reliability(t)
            nlft = build_bbw_system(params, "nlft", mode).reliability(t)
            assert nlft >= fs - 1e-9

    @given(
        coverage=st.floats(min_value=0.5, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=10_000.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_degraded_never_worse_than_full(self, coverage, t):
        params = BbwParameters.paper().with_coverage(coverage)
        for node_type in ("fs", "nlft"):
            full = build_bbw_system(params, node_type, "full").reliability(t)
            degraded = build_bbw_system(params, node_type, "degraded").reliability(t)
            assert degraded >= full - 1e-9

    @given(t=st.floats(min_value=0.0, max_value=50_000.0))
    @settings(max_examples=30, deadline=None)
    def test_system_reliability_in_unit_interval(self, t):
        model = build_bbw_system(BbwParameters.paper(), "nlft", "degraded")
        value = model.reliability(t)
        assert -1e-12 <= value <= 1.0 + 1e-12
