"""Tests of the CTMC model type and its solvers."""

import math

import numpy as np
import pytest

from repro.errors import ModelError, NotAbsorbingError
from repro.models import BbwParameters
from repro.models.central_unit import build_cu_nlft
from repro.models.wheel_nodes import build_wn_fs_degraded
from repro.reliability import (
    MarkovChain,
    Transition,
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


class TestPublicSurface:
    """What the chain shows of its transitions, pinned against the store
    of index tuples behind it."""

    def test_transitions_are_records_in_insertion_order(self):
        chain = MarkovChain(["a", "b", "c"])
        chain.add_transition("b", "c", 2, label="late")
        chain.add_transition("a", "b", 0.5)
        chain.add_transition("b", "c", 0.0, label="zero")
        chain.add_transition("c", "a", 1.25, label="back")
        assert chain.transitions == [
            Transition("b", "c", 2.0, "late"),
            Transition("a", "b", 0.5, ""),
            Transition("b", "c", 0.0, "zero"),
            Transition("c", "a", 1.25, "back"),
        ]
        assert all(type(t.rate) is float for t in chain.transitions)
        chain.transitions.clear()
        assert len(chain.transitions) == 4

    def test_bbw_transitions_keep_their_rates_and_order(self):
        params = BbwParameters.paper()
        remaining = 3 * params.fs_failure_rate
        assert build_wn_fs_degraded(params).transitions == [
            Transition("0", "1", 4 * params.lambda_p * params.coverage,
                       "detected permanent fault in one of four nodes"),
            Transition("0", "2", 4 * params.lambda_t * params.coverage,
                       "detected transient fault -> fail-silent restart"),
            Transition("0", "F", 4 * params.uncovered_rate,
                       "non-covered error (pessimistic: system failure)"),
            Transition("1", "F", remaining, "any fault among the three remaining nodes"),
            Transition("2", "0", params.mu_restart, "reintegration"),
            Transition("2", "F", remaining,
                       "any fault among the three working nodes during restart"),
        ]

    def test_describe_central_unit(self):
        assert build_cu_nlft(BbwParameters.paper()).describe() == "\n".join([
            "MarkovChain 'CU-NLFT': states=['0', '1', '2', '3', 'F']",
            "  0 -> 1  rate=3.6036e-05  [detected permanent fault in one of two nodes]",
            "  0 -> 2  rate=1.8018e-05  "
            "[detected transient -> fail-silent failure (kernel error)]",
            "  0 -> 3  rate=1.8018e-05  "
            "[detected transient -> omission failure (no time to recover)]",
            "  0 -> F  rate=4.004e-06  [non-covered error (pessimistic: system failure)]",
            "  1 -> F  rate=3.8038e-05  [unmasked fault in the remaining NLFT node]",
            "  2 -> F  rate=3.8038e-05  [unmasked fault in the remaining NLFT node]",
            "  2 -> 0  rate=1200  [repair/reintegration]",
            "  3 -> F  rate=3.8038e-05  [unmasked fault in the remaining NLFT node]",
            "  3 -> 0  rate=2250  [repair/reintegration]",
            "  absorbing: F",
        ])

    def test_describe_wheel_subsystem(self):
        assert build_wn_fs_degraded(BbwParameters.paper()).describe() == "\n".join([
            "MarkovChain 'WN-FS-degraded': states=['0', '1', '2', 'F']",
            "  0 -> 1  rate=7.2072e-05  [detected permanent fault in one of four nodes]",
            "  0 -> 2  rate=0.00072072  [detected transient fault -> fail-silent restart]",
            "  0 -> F  rate=8.008e-06  [non-covered error (pessimistic: system failure)]",
            "  1 -> F  rate=0.0006006  [any fault among the three remaining nodes]",
            "  2 -> 0  rate=1200  [reintegration]",
            "  2 -> F  rate=0.0006006  "
            "[any fault among the three working nodes during restart]",
            "  absorbing: F",
        ])

    def test_state_whose_only_exit_has_rate_zero_is_absorbing(self):
        chain = MarkovChain(["ok", "deg", "F"])
        chain.add_transition("ok", "deg", 1.0)
        chain.add_transition("deg", "F", 0.0)
        assert chain.absorbing_states() == ["deg", "F"]
        chain.add_transition("deg", "F", 0.5)
        assert chain.absorbing_states() == ["F"]

    def test_direct_transition_validates(self):
        with pytest.raises(ModelError, match="negative rate"):
            Transition("a", "b", -0.5)
        with pytest.raises(ModelError, match="self-loop"):
            Transition("a", "a", 1.0)


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
