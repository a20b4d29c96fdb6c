"""Tests of the CTMC model type and its solvers."""

import math

import numpy as np
import pytest

from repro.errors import ModelError, NotAbsorbingError
from repro.reliability import (
    MarkovChain,
    mean_time_to_absorption,
    rate_sum,
    steady_state,
    transient_distribution,
    transient_distributions,
)

from tests.oracles import reference_ctmc


def two_state_repairable(lam=0.5, mu=2.0) -> MarkovChain:
    chain = MarkovChain(["up", "down"], name="repairable")
    chain.add_transition("up", "down", lam)
    chain.add_transition("down", "up", mu)
    chain.set_initial("up")
    return chain


def absorbing_chain(lam=0.1) -> MarkovChain:
    chain = MarkovChain(["up", "failed"], name="absorbing")
    chain.add_transition("up", "failed", lam)
    chain.set_initial("up")
    return chain


class TestConstruction:
    def test_duplicate_states_rejected(self):
        with pytest.raises(ModelError):
            MarkovChain(["a", "a"])

    def test_unknown_state_rejected(self):
        chain = MarkovChain(["a", "b"])
        with pytest.raises(ModelError):
            chain.add_transition("a", "c", 1.0)

    def test_negative_rate_rejected(self):
        chain = MarkovChain(["a", "b"])
        with pytest.raises(ModelError):
            chain.add_transition("a", "b", -1.0)

    def test_self_loop_rejected(self):
        chain = MarkovChain(["a", "b"])
        with pytest.raises(ModelError):
            chain.add_transition("a", "a", 1.0)

    def test_generator_rows_sum_to_zero(self):
        chain = two_state_repairable()
        q = chain.generator_matrix()
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_parallel_transitions_sum(self):
        chain = MarkovChain(["a", "b"])
        chain.add_transition("a", "b", 1.0, label="x")
        chain.add_transition("a", "b", 2.0, label="y")
        assert rate_sum(chain, "a", "b") == pytest.approx(3.0)

    def test_initial_distribution_mapping(self):
        chain = MarkovChain(["a", "b", "c"])
        chain.set_initial({"a": 0.25, "c": 0.75})
        assert np.allclose(chain.initial_distribution, [0.25, 0.0, 0.75])
        with pytest.raises(ModelError):
            chain.set_initial({"a": 0.5})

    def test_absorbing_state_detection(self):
        chain = absorbing_chain()
        assert chain.absorbing_states() == ["failed"]
        assert two_state_repairable().absorbing_states() == []

    def test_describe_lists_structure(self):
        text = absorbing_chain().describe()
        assert "up -> failed" in text
        assert "absorbing: failed" in text


class TestTransientAnalysis:
    def test_exponential_decay_closed_form(self):
        lam = 0.3
        chain = absorbing_chain(lam)
        for t in (0.0, 1.0, 5.0, 20.0):
            probs = chain.transient_distribution(t)
            assert probs[0] == pytest.approx(math.exp(-lam * t), rel=1e-9)

    def test_repairable_availability_closed_form(self):
        lam, mu = 0.5, 2.0
        chain = two_state_repairable(lam, mu)
        for t in (0.1, 1.0, 10.0):
            expected = mu / (lam + mu) + lam / (lam + mu) * math.exp(-(lam + mu) * t)
            probs = chain.transient_distribution(t)
            assert probs[0] == pytest.approx(expected, rel=1e-8)

    def test_solvers_agree(self):
        chain = two_state_repairable()
        for t in (0.5, 3.0, 25.0):
            reference = transient_distribution(chain, t)
            uniform = reference_ctmc.transient_distribution(
                chain, t, method="uniformization"
            )
            ode = reference_ctmc.transient_distribution(chain, t, method="ode")
            assert np.allclose(reference, uniform, atol=1e-8)
            assert np.allclose(reference, ode, atol=1e-6)

    def test_distribution_sums_to_one(self):
        chain = two_state_repairable()
        probs = chain.transient_distribution(7.0)
        assert probs.sum() == pytest.approx(1.0)

    def test_time_zero_returns_initial(self):
        chain = two_state_repairable()
        assert np.allclose(chain.transient_distribution(0.0), [1.0, 0.0])

    def test_negative_time_rejected(self):
        with pytest.raises(ModelError):
            two_state_repairable().transient_distribution(-1.0)

    def test_vectorised_times(self):
        chain = two_state_repairable()
        times = [0.0, 1.0, 2.0]
        matrix = transient_distributions(chain, times)
        assert matrix.shape == (3, 2)
        for i, t in enumerate(times):
            assert np.allclose(matrix[i], chain.transient_distribution(t), atol=1e-8)

    def test_ode_grid_matches_expm(self):
        chain = two_state_repairable()
        times = [0.5, 1.0, 5.0, 9.0]
        ode = reference_ctmc.transient_distributions(chain, times, method="ode")
        expm_result = transient_distributions(chain, times)
        assert np.allclose(ode, expm_result, atol=1e-6)


class TestReliabilityAndMttf:
    def test_reliability_of_absorbing_chain(self):
        chain = absorbing_chain(0.2)
        assert chain.reliability(3.0) == pytest.approx(math.exp(-0.6), rel=1e-9)

    def test_mttf_exponential(self):
        chain = absorbing_chain(0.25)
        assert chain.mttf() == pytest.approx(4.0, rel=1e-10)

    def test_mttf_series_of_phases(self):
        # up -> degraded -> failed: MTTF = 1/l1 + 1/l2.
        chain = MarkovChain(["up", "degraded", "failed"])
        chain.add_transition("up", "degraded", 0.5)
        chain.add_transition("degraded", "failed", 0.25)
        chain.set_initial("up")
        assert chain.mttf() == pytest.approx(2.0 + 4.0, rel=1e-10)

    def test_mttf_with_repair_exceeds_no_repair(self):
        no_repair = MarkovChain(["up", "tmp", "failed"])
        no_repair.add_transition("up", "tmp", 1.0)
        no_repair.add_transition("tmp", "failed", 1.0)
        no_repair.set_initial("up")
        with_repair = MarkovChain(["up", "tmp", "failed"])
        with_repair.add_transition("up", "tmp", 1.0)
        with_repair.add_transition("tmp", "failed", 1.0)
        with_repair.add_transition("tmp", "up", 10.0)
        with_repair.set_initial("up")
        assert with_repair.mttf() > no_repair.mttf()

    def test_mttf_unreachable_failure_raises(self):
        chain = MarkovChain(["a", "b", "failed"])
        chain.add_transition("a", "b", 1.0)
        chain.add_transition("b", "a", 1.0)
        chain.set_initial("a")
        with pytest.raises(NotAbsorbingError):
            mean_time_to_absorption(chain, ["failed"])

    def test_no_absorbing_states_raises(self):
        with pytest.raises(ModelError):
            two_state_repairable().reliability(1.0)


class TestSteadyState:
    def test_repairable_steady_state(self):
        lam, mu = 0.5, 2.0
        pi = steady_state(two_state_repairable(lam, mu))
        assert pi[0] == pytest.approx(mu / (lam + mu))
        assert pi[1] == pytest.approx(lam / (lam + mu))

    def test_reducible_chain_rejected(self):
        chain = MarkovChain(["a", "b", "c"])
        chain.add_transition("a", "b", 1.0)
        chain.add_transition("b", "a", 1.0)
        # c is disconnected -> no unique stationary distribution.
        with pytest.raises(ModelError):
            steady_state(chain)
