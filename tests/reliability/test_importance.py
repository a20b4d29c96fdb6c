"""Tests of component importance measures."""

import pytest

from repro.errors import ModelError
from repro.reliability import (
    AndGate,
    BasicEvent,
    OrGate,
    analyse_importance,
    birnbaum_importance,
    fussell_vesely,
    improvement_potential,
)


def event(p: float, name: str) -> BasicEvent:
    return BasicEvent(lambda t: p, name)


class TestBirnbaum:
    def test_or_gate_closed_form(self):
        # Top = 1-(1-qa)(1-qb); dTop/dqa = 1-qb.
        a, b = event(0.3, "a"), event(0.2, "b")
        tree = OrGate([a, b])
        assert birnbaum_importance(tree, a, 0.0) == pytest.approx(0.8)
        assert birnbaum_importance(tree, b, 0.0) == pytest.approx(0.7)

    def test_and_gate_closed_form(self):
        # Top = qa*qb; dTop/dqa = qb.
        a, b = event(0.3, "a"), event(0.2, "b")
        tree = AndGate([a, b])
        assert birnbaum_importance(tree, a, 0.0) == pytest.approx(0.2)

    def test_less_reliable_input_of_or_has_lower_birnbaum(self):
        # For an OR gate, Birnbaum of a = 1 - q_b: the *partner's* quality
        # decides; equal partners -> equal importance.
        a, b = event(0.5, "a"), event(0.5, "b")
        tree = OrGate([a, b])
        assert birnbaum_importance(tree, a, 0.0) == pytest.approx(
            birnbaum_importance(tree, b, 0.0)
        )

    def test_series_system_importance_matches_derivative(self):
        # Numerical derivative cross-check.
        qa = 0.37
        a, b = event(qa, "a"), event(0.11, "b")
        tree = OrGate([a, b])
        eps = 1e-6
        up = OrGate([event(qa + eps, "a"), event(0.11, "b")]).probability(0.0)
        down = OrGate([event(qa - eps, "a"), event(0.11, "b")]).probability(0.0)
        numerical = (up - down) / (2 * eps)
        assert birnbaum_importance(tree, a, 0.0) == pytest.approx(numerical, rel=1e-4)


class TestOtherMeasures:
    def test_improvement_potential(self):
        a, b = event(0.3, "a"), event(0.2, "b")
        tree = OrGate([a, b])
        # Making 'a' perfect leaves P(top) = q_b.
        assert improvement_potential(tree, a, 0.0) == pytest.approx(
            tree.probability(0.0) - 0.2
        )

    def test_fussell_vesely_or_gate(self):
        a, b = event(0.3, "a"), event(0.2, "b")
        tree = OrGate([a, b])
        top = tree.probability(0.0)
        # P(a failed AND top) = q_a (a alone causes the top event).
        assert fussell_vesely(tree, a, 0.0) == pytest.approx(0.3 / top)

    def test_fussell_vesely_zero_when_system_perfect(self):
        a = event(0.0, "a")
        tree = OrGate([a, event(0.0, "b")])
        assert fussell_vesely(tree, a, 0.0) == 0.0


class TestAnalyseImportance:
    def test_report_ranks_events(self):
        weak, strong = event(0.4, "weak"), event(0.01, "strong")
        tree = OrGate([weak, strong])
        report = analyse_importance(tree, 0.0)
        # OR gate: Birnbaum(weak) = 1 - 0.01 > Birnbaum(strong) = 1 - 0.4.
        assert report.bottleneck() == "weak"
        assert report.ranked_by_birnbaum() == ["weak", "strong"]

    def test_shared_events_handled(self):
        shared = event(0.5, "shared")
        other = event(0.1, "other")
        tree = AndGate([OrGate([shared, other]), OrGate([shared])])
        report = analyse_importance(tree, 0.0)
        # P(top | shared failed) = 1, P(top | shared ok) = 0 (second branch
        # needs 'shared'), so Birnbaum(shared) = 1.
        assert report.birnbaum["shared"] == pytest.approx(1.0)

    def test_duplicate_names_rejected(self):
        tree = OrGate([event(0.1, "x"), event(0.2, "x")])
        with pytest.raises(ModelError):
            analyse_importance(tree, 0.0)

    def test_bbw_bottleneck_is_wheel_subsystem(self):
        from repro.experiments import compute_importance_table

        result = compute_importance_table()
        assert result.wheel_subsystem_is_always_the_bottleneck
        report = result.reports["nlft/degraded"]
        assert (
            report.birnbaum["wheel-subsystem-failure"]
            > report.birnbaum["central-unit-failure"]
        )
        assert (
            report.fussell_vesely["wheel-subsystem-failure"]
            > report.fussell_vesely["central-unit-failure"]
        )
