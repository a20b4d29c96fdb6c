"""Tests for the batched (stacked-expm) reliability solver.

The equivalence contract (module docstring of
:mod:`repro.reliability.sweep_solver`): ``reliability_batch`` is
bit-identical (``==``) to the ``expm`` point solve ``chain.reliability(t)``
— on random absorbing chains, on the exact BBW chain population the
Figure 14 sweep batches (t = 0 included) and on rate-0 chains — and stays
within 1e-9 of the independent uniformization point solver
(``transient_distribution(..., method="uniformization")``).

``TestGridEquivalence`` solves one chain over a time grid,
``TestBatchEquivalence`` many chains at once; ``TestFailureStates`` pins
per-chain failure states, ``TestValidation`` the input checks.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.experiments.figure14 import (
    DEFAULT_COVERAGES,
    DEFAULT_RATE_SCALES,
    MISSION_HOURS,
    compute_figure14,
)
from repro.models import BbwParameters, build_bbw_system
from repro.reliability import (
    MarkovChain,
    clear_solver_cache,
    reliability_batch,
    transient_distribution,
)

TOLERANCE = 1e-9
TIMES = [0.0, 0.3, 1.0, 2.5, 5.0]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_solver_cache()
    yield
    clear_solver_cache()


def _absorbing_chain(rng, n_states, name=""):
    """Random chain whose last state is absorbing (for reliability tests)."""
    states = [f"s{i}" for i in range(n_states)]
    chain = MarkovChain(states, name=name)
    for i in range(n_states - 1):
        for j in range(n_states):
            if i != j and rng.integers(0, 2):
                chain.add_transition(
                    states[i], states[j], float(rng.uniform(0.01, 3.0))
                )
        # Keep the failure state reachable from every transient state.
        chain.add_transition(states[i], states[-1], float(rng.uniform(0.01, 1.0)))
    chain.set_initial(states[0])
    return chain


def _point_grid(chains, times):
    """The ``expm`` point path: ``chain.reliability(t)`` per (chain, t)."""
    return np.array([[chain.reliability(t) for t in times] for chain in chains])


def _uniformization_grid(chains, times):
    """The independent cross-check: uniformization point solves."""
    grid = []
    for chain in chains:
        failure = [chain.state_index(s) for s in chain.absorbing_states()]
        grid.append(
            [
                1.0
                - transient_distribution(chain, t, method="uniformization")[
                    failure
                ].sum()
                for t in times
            ]
        )
    return np.array(grid)


def _figure14_chains(node_type, coverages=DEFAULT_COVERAGES, scales=DEFAULT_RATE_SCALES):
    """Central-unit and wheel-subsystem chains over a Figure 14 grid."""
    base = BbwParameters.paper()
    models = [
        build_bbw_system(
            base.with_coverage(c).with_transient_scale(s), node_type, "degraded"
        )
        for c in coverages
        for s in scales
    ]
    return [m.central_unit for m in models], [m.wheel_subsystem for m in models]


class TestGridEquivalence:
    def test_random_chains_match_reference_pointwise(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            chain = _absorbing_chain(rng, int(rng.integers(2, 6)))
            grid = reliability_batch([chain], TIMES)
            reference = _uniformization_grid([chain], TIMES)
            assert np.abs(grid - reference).max() <= TOLERANCE

    def test_time_zero_row_is_exactly_pi0(self):
        rng = np.random.default_rng(7)
        chain = _absorbing_chain(rng, 4)
        chain.set_initial({"s0": 0.75, "s3": 0.25})
        grid = reliability_batch([chain], [0.0, 1.0])
        assert grid[0, 0] == 1.0 - chain.initial_distribution[3]
        assert grid[0, 0] == chain.reliability(0.0)

    def test_rate_zero_chain_never_moves(self):
        chains = [MarkovChain(["a", "b"], name=f"z{i}") for i in range(3)]
        for chain in chains:
            chain.add_transition("a", "b", 0.0)  # present but rate 0: Q = 0
        grid = reliability_batch(chains, TIMES, failure_states=["b"])
        assert (grid == 1.0).all()
        point = [[chain.reliability(t, ["b"]) for t in TIMES] for chain in chains]
        assert (grid == np.array(point)).all()

    def test_reliability_grid_matches_point_solver(self):
        rng = np.random.default_rng(99)
        chain = _absorbing_chain(rng, 4)
        grid = reliability_batch([chain], TIMES)
        assert (grid == _point_grid([chain], TIMES)).all()


class TestBatchEquivalence:
    def test_random_batch_matches_per_chain_grids(self):
        rng = np.random.default_rng(42)
        for n_states in (2, 3, 4, 5):
            chains = [
                _absorbing_chain(rng, n_states, name=f"c{i}") for i in range(6)
            ]
            batch = reliability_batch(chains, TIMES)
            assert (batch == _point_grid(chains, TIMES)).all()
            assert np.abs(batch - _uniformization_grid(chains, TIMES)).max() <= (
                TOLERANCE
            )

    def test_figure14_chains_match_reference(self):
        """The exact population the Figure 14 sweep batches."""
        times = [0.0, 1.0, MISSION_HOURS]
        for node_type in ("fs", "nlft"):
            for chains in _figure14_chains(node_type):
                batch = reliability_batch(chains, times)
                assert (batch[:, 0] == 1.0).all()
                assert (batch == _point_grid(chains, times)).all()
            corners = _figure14_chains(node_type, (0.9, 0.9999), (1.0, 1000.0))
            for chains in corners:
                batch = reliability_batch(chains, times)
                reference = _uniformization_grid(chains, times)
                assert np.abs(batch - reference).max() <= TOLERANCE

    def test_compute_figure14_matches_point_by_point(self):
        """Every default-grid point equals the BBW model's point solve."""
        result = compute_figure14()
        base = BbwParameters.paper()
        for node_type in ("fs", "nlft"):
            for c in DEFAULT_COVERAGES:
                for s in DEFAULT_RATE_SCALES:
                    model = build_bbw_system(
                        base.with_coverage(c).with_transient_scale(s),
                        node_type,
                        "degraded",
                    )
                    expected = model.reliability(MISSION_HOURS)
                    assert result.reliability[node_type][(c, s)] == expected

    def test_reliability_batch_of_one_matches_grid(self):
        rng = np.random.default_rng(3)
        chains = [_absorbing_chain(rng, 5, name=f"c{i}") for i in range(4)]
        batch = reliability_batch(chains, TIMES)
        for c, chain in enumerate(chains):
            assert (reliability_batch([chain], TIMES)[0] == batch[c]).all()


class TestFailureStates:
    @staticmethod
    def _chain(deg_to_f):
        chain = MarkovChain(["ok", "deg", "F"], name=f"deg->F {deg_to_f}")
        chain.add_transition("ok", "deg", 1.0)
        chain.add_transition("deg", "F", deg_to_f)
        chain.set_initial("ok")
        return chain

    @pytest.mark.parametrize("order", [(0.0, 0.5), (0.5, 0.0)])
    def test_each_chain_uses_its_own_absorbing_states(self, order):
        """Regression: a zero-rate edge makes ``deg`` absorbing in one chain
        only, so the chains' default failure sets differ."""
        chains = [self._chain(rate) for rate in order]
        batch = reliability_batch(chains, [1.0])
        assert (batch[:, 0] == [chain.reliability(1.0) for chain in chains]).all()
        stuck = order.index(0.0)
        assert batch[stuck, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_explicit_failure_states_apply_to_every_chain(self):
        chains = [self._chain(0.0), self._chain(0.5)]
        batch = reliability_batch(chains, [1.0], failure_states=["F"])
        assert batch[0, 0] == 1.0
        assert batch[1, 0] == chains[1].reliability(1.0, ["F"])


class TestValidation:
    def test_rejects_empty_time_grid(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ModelError):
            reliability_batch([_absorbing_chain(rng, 3)], [])

    def test_rejects_negative_times(self):
        chain = MarkovChain(["a", "b"])
        with pytest.raises(ModelError):
            reliability_batch([chain], [1.0, -0.5], failure_states=["b"])

    def test_rejects_empty_chain_list(self):
        with pytest.raises(ModelError):
            reliability_batch([], [1.0])

    def test_rejects_structurally_different_chains(self):
        """Same state count, different state names."""
        rng = np.random.default_rng(1)
        other = MarkovChain(["x", "y", "z"])
        other.add_transition("x", "z", 1.0)
        with pytest.raises(ModelError):
            reliability_batch([_absorbing_chain(rng, 3), other], [1.0])

    def test_rejects_shape_mismatch(self):
        """Different state counts."""
        rng = np.random.default_rng(1)
        with pytest.raises(ModelError):
            reliability_batch(
                [_absorbing_chain(rng, 3), _absorbing_chain(rng, 4)], [1.0]
            )

    def test_requires_failure_states_for_chain_without_absorbing(self):
        chain = MarkovChain(["a", "b"])
        chain.add_transition("a", "b", 1.0)
        chain.add_transition("b", "a", 1.0)
        with pytest.raises(ModelError):
            reliability_batch([chain], [1.0])
