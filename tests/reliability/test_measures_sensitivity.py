"""Tests of dependability measures and parameter sweeps."""

import math

import pytest

from repro.errors import ModelError
from repro.reliability import (
    Exponential,
    crossing_time,
    mttf_from_reliability,
    reliability_improvement,
    sample_curve,
    sweep,
)


class TestMttfIntegration:
    def test_exponential_mttf(self):
        value = mttf_from_reliability(lambda t: math.exp(-0.1 * t))
        assert value == pytest.approx(10.0, rel=1e-4)

    def test_explicit_horizon(self):
        value = mttf_from_reliability(lambda t: math.exp(-t), horizon=60.0)
        assert value == pytest.approx(1.0, rel=1e-6)

    def test_product_of_exponentials(self):
        # R = exp(-(a+b) t) -> MTTF = 1/(a+b).
        value = mttf_from_reliability(lambda t: math.exp(-0.2 * t) * math.exp(-0.3 * t))
        assert value == pytest.approx(2.0, rel=1e-4)

    def test_never_decaying_reliability_raises(self):
        with pytest.raises(ModelError):
            mttf_from_reliability(lambda t: 1.0)


class TestImprovements:
    def test_reliability_improvement(self):
        baseline = lambda t: 0.45
        improved = lambda t: 0.70
        assert reliability_improvement(baseline, improved, 1.0) == pytest.approx(
            0.5555, rel=1e-3
        )

    def test_zero_baseline_rejected(self):
        with pytest.raises(ModelError):
            reliability_improvement(lambda t: 0.0, lambda t: 0.5, 1.0)


class TestCrossingTime:
    def test_exponential_crossing(self):
        t = crossing_time(lambda x: math.exp(-0.5 * x), level=0.5, t_max=100.0)
        assert t == pytest.approx(math.log(2) / 0.5, rel=1e-4)

    def test_level_never_reached(self):
        with pytest.raises(ModelError):
            crossing_time(lambda x: 0.9, level=0.5, t_max=10.0)

    def test_invalid_level(self):
        with pytest.raises(ModelError):
            crossing_time(lambda x: math.exp(-x), level=1.5, t_max=10.0)


class TestSampleCurve:
    def test_returns_pairs(self):
        curve = sample_curve(lambda t: 1.0 - t / 10.0, [0.0, 5.0])
        assert curve == [(0.0, 1.0), (5.0, 0.5)]


class TestSweep:
    def test_grid_evaluation(self):
        result = sweep(
            factory=lambda params: Exponential(params["rate"]).reliability,
            grid={"rate": [0.1, 0.2]},
            at_time=10.0,
        )
        assert len(result.points) == 2
        series = result.series("rate")
        assert series[0] == (0.1, pytest.approx(math.exp(-1.0)))
        assert series[1] == (0.2, pytest.approx(math.exp(-2.0)))

    def test_two_axis_cartesian_product(self):
        result = sweep(
            factory=lambda p: (lambda t: math.exp(-p["a"] * p["b"] * t)),
            grid={"a": [1.0, 2.0], "b": [1.0, 3.0]},
            at_time=1.0,
        )
        assert len(result.points) == 4
        table = result.table("a", "b")
        assert table[2.0][3.0] == pytest.approx(math.exp(-6.0))

    def test_series_filter(self):
        result = sweep(
            factory=lambda p: (lambda t: p["a"] * 0 + p["b"] * 0 + 0.5),
            grid={"a": [1.0, 2.0], "b": [5.0]},
            at_time=1.0,
        )
        filtered = result.series("a", where={"b": 5.0})
        assert [x for x, _ in filtered] == [1.0, 2.0]

    def test_values_of(self):
        result = sweep(
            factory=lambda p: (lambda t: 1.0),
            grid={"a": [3.0, 1.0, 2.0]},
            at_time=0.0,
        )
        assert result.values_of("a") == [1.0, 2.0, 3.0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ModelError):
            sweep(lambda p: (lambda t: 1.0), {}, 1.0)
        with pytest.raises(ModelError):
            sweep(lambda p: (lambda t: 1.0), {"a": []}, 1.0)
