"""Tests of reliability block diagrams and fault trees."""

import math

import pytest

from repro.errors import ModelError
from repro.reliability import (
    AndGate,
    BasicEvent,
    KofNGate,
    OrGate,
    markov_event,
    MarkovChain,
)
from tests.oracles.reference_rbd import (
    Component,
    Exponential,
    KofN,
    KofNHeterogeneous,
    Parallel,
    Series,
)


class TestRbdBasics:
    def test_exponential_component(self):
        component = Exponential(0.1)
        assert component.reliability(0.0) == pytest.approx(1.0)
        assert component.reliability(10.0) == pytest.approx(math.exp(-1.0))

    def test_series_multiplies(self):
        block = Series([Exponential(0.1), Exponential(0.2)])
        assert block.reliability(5.0) == pytest.approx(math.exp(-0.5) * math.exp(-1.0))

    def test_series_equivalent_to_summed_rates(self):
        series = Series([Exponential(0.1) for _ in range(4)])
        merged = Exponential(0.4)
        for t in (0.0, 1.0, 7.0):
            assert series.reliability(t) == pytest.approx(merged.reliability(t))

    def test_parallel_one_of_two(self):
        block = Parallel([Exponential(0.1), Exponential(0.1)])
        t = 5.0
        p = math.exp(-0.5)
        assert block.reliability(t) == pytest.approx(1 - (1 - p) ** 2)

    def test_k_of_n_identical(self):
        block = KofN(3, 4, Exponential(0.1))
        t = 5.0
        p = math.exp(-0.5)
        expected = 4 * p**3 * (1 - p) + p**4
        assert block.reliability(t) == pytest.approx(expected)

    def test_k_of_n_heterogeneous_matches_identical_case(self):
        blocks = [Exponential(0.1) for _ in range(4)]
        het = KofNHeterogeneous(3, blocks)
        hom = KofN(3, 4, Exponential(0.1))
        for t in (0.5, 2.0, 10.0):
            assert het.reliability(t) == pytest.approx(hom.reliability(t))

    def test_operator_sugar(self):
        a, b = Exponential(0.1), Exponential(0.2)
        assert (a >> b).reliability(1.0) == pytest.approx(Series([a, b]).reliability(1.0))
        assert (a | b).reliability(1.0) == pytest.approx(Parallel([a, b]).reliability(1.0))

    def test_boundary_k_values(self):
        # 1-of-n == parallel; n-of-n == series.
        component = Exponential(0.3)
        assert KofN(1, 3, component).reliability(2.0) == pytest.approx(
            Parallel([component] * 3).reliability(2.0)
        )
        assert KofN(3, 3, component).reliability(2.0) == pytest.approx(
            Series([component] * 3).reliability(2.0)
        )

    def test_validation(self):
        with pytest.raises(ModelError):
            Series([])
        with pytest.raises(ModelError):
            KofN(0, 3, Exponential(0.1))
        with pytest.raises(ModelError):
            Exponential(-1.0)
        bad = Component(lambda t: 1.5, name="bad")
        with pytest.raises(ModelError):
            bad.reliability(1.0)


class TestFaultTrees:
    def test_or_gate_matches_series_rbd(self):
        events = [BasicEvent(lambda t: 1 - math.exp(-0.1 * t), "a"),
                  BasicEvent(lambda t: 1 - math.exp(-0.2 * t), "b")]
        tree = OrGate(events)
        rbd = Series([Exponential(0.1), Exponential(0.2)])
        for t in (0.5, 2.0, 10.0):
            assert tree.reliability(t) == pytest.approx(rbd.reliability(t))

    def test_and_gate_matches_parallel_rbd(self):
        events = [BasicEvent(lambda t: 1 - math.exp(-0.1 * t), f"e{i}") for i in range(2)]
        tree = AndGate(events)
        rbd = Parallel([Exponential(0.1), Exponential(0.1)])
        for t in (0.5, 2.0):
            assert tree.reliability(t) == pytest.approx(rbd.reliability(t))

    def test_k_of_n_gate(self):
        events = [BasicEvent(lambda t: 0.1, f"e{i}") for i in range(3)]
        tree = KofNGate(2, events)
        # P(at least 2 of 3 fail), p = 0.1:
        expected = 3 * 0.1**2 * 0.9 + 0.1**3
        assert tree.probability(1.0) == pytest.approx(expected)

    def test_shared_event_handled_exactly(self):
        """A basic event feeding two gates must not be double-counted."""
        shared = BasicEvent(lambda t: 0.5, "shared")
        tree = AndGate([OrGate([shared]), OrGate([shared])])
        # P(shared AND shared) = P(shared) = 0.5, not 0.25.
        assert tree.probability(1.0) == pytest.approx(0.5)

    def test_empty_gate_rejected(self):
        with pytest.raises(ModelError):
            OrGate([])


class TestHierarchy:
    def chain(self) -> MarkovChain:
        chain = MarkovChain(["up", "failed"], name="sub")
        chain.add_transition("up", "failed", 0.2)
        chain.set_initial("up")
        return chain

    def test_markov_event_is_unreliability(self):
        event = markov_event(self.chain())
        assert event.failure_probability(3.0) == pytest.approx(1 - math.exp(-0.6), rel=1e-9)

    def test_or_of_two_markov_subsystems_is_product(self):
        tree = OrGate([markov_event(self.chain(), name="s1"),
                       markov_event(self.chain(), name="s2")])
        assert tree.reliability(3.0) == pytest.approx(math.exp(-1.2), rel=1e-9)

    def test_caching_avoids_recomputation(self):
        calls = {"n": 0}

        def slow(t: float) -> float:
            calls["n"] += 1
            return math.exp(-t)

        from repro.reliability import CachedReliability

        cached = CachedReliability(slow)
        cached(1.0)
        cached(1.0)
        cached(2.0)
        assert calls["n"] == 2
