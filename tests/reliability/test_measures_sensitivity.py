"""Tests of the numerical MTTF integral."""

import math

import pytest

from repro.errors import ModelError
from repro.reliability import mttf_from_reliability


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

