"""Structural and numerical tests of the paper's BBW models (Figs 5-11)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.models import (
    BbwParameters,
    build_all_configurations,
    build_bbw_system,
    build_central_unit,
    build_cu_fs,
    build_cu_nlft,
    build_wheel_subsystem,
    build_wn_fs_degraded,
    build_wn_fs_full,
    build_wn_nlft_degraded,
    build_wn_nlft_full,
)
from repro.reliability import rate_sum
from repro.units import HOURS_PER_YEAR
from tests.oracles.reference_rbd import build_wn_fs_full_rbd


@pytest.fixture
def p() -> BbwParameters:
    return BbwParameters.paper()


class TestParameters:
    def test_paper_values(self, p):
        assert p.lambda_p == pytest.approx(1.82e-5)
        assert p.lambda_t == pytest.approx(1.82e-4)
        assert p.lambda_t == pytest.approx(10 * p.lambda_p)
        assert p.coverage == 0.99
        assert p.p_tem + p.p_omission + p.p_fail_silent == pytest.approx(1.0)
        assert p.mu_restart == pytest.approx(1.2e3)
        assert p.mu_omission == pytest.approx(2.25e3)

    def test_repair_rates_match_repair_times(self, p):
        # mu_R = 1200/h <-> 3 s; mu_OM = 2250/h <-> 1.6 s.
        assert 3600.0 / p.mu_restart == pytest.approx(3.0)
        assert 3600.0 / p.mu_omission == pytest.approx(1.6)

    def test_derived_rates(self, p):
        assert p.lambda_total == pytest.approx(2.002e-4)
        assert p.uncovered_rate == pytest.approx(2.002e-6)
        assert p.nlft_unmasked_rate == pytest.approx(
            p.lambda_p + p.lambda_t * (1 - 0.99 * 0.9)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BbwParameters(coverage=1.5)
        with pytest.raises(ConfigurationError):
            BbwParameters(p_tem=0.5, p_omission=0.1, p_fail_silent=0.1)
        with pytest.raises(ConfigurationError):
            BbwParameters(mu_restart=0.0)

    def test_sweep_helpers(self, p):
        scaled = p.with_transient_scale(10.0)
        assert scaled.lambda_t == pytest.approx(10 * p.lambda_t)
        assert scaled.lambda_p == p.lambda_p
        covered = p.with_coverage(0.999)
        assert covered.coverage == 0.999


class TestCentralUnitStructure:
    def test_fs_transitions_match_figure6(self, p):
        chain = build_cu_fs(p)
        assert set(chain.states) == {"0", "1", "2", "F"}
        assert rate_sum(chain, "0", "1") == pytest.approx(2 * p.lambda_p * p.coverage)
        assert rate_sum(chain, "0", "2") == pytest.approx(2 * p.lambda_t * p.coverage)
        assert rate_sum(chain, "0", "F") == pytest.approx(2 * p.uncovered_rate)
        assert rate_sum(chain, "1", "F") == pytest.approx(p.lambda_total)
        assert rate_sum(chain, "2", "0") == pytest.approx(p.mu_restart)
        assert rate_sum(chain, "2", "F") == pytest.approx(p.lambda_total)
        assert chain.absorbing_states() == ["F"]

    def test_nlft_transitions_match_figure7(self, p):
        chain = build_cu_nlft(p)
        assert set(chain.states) == {"0", "1", "2", "3", "F"}
        detected_t = 2 * p.lambda_t * p.coverage
        assert rate_sum(chain, "0", "2") == pytest.approx(detected_t * p.p_fail_silent)
        assert rate_sum(chain, "0", "3") == pytest.approx(detected_t * p.p_omission)
        assert rate_sum(chain, "3", "0") == pytest.approx(p.mu_omission)
        lone = p.nlft_unmasked_rate
        for state in ("1", "2", "3"):
            assert rate_sum(chain, state, "F") == pytest.approx(lone)

    def test_nlft_cu_more_reliable_than_fs(self, p):
        t = HOURS_PER_YEAR
        assert build_cu_nlft(p).reliability(t) > build_cu_fs(p).reliability(t)

    def test_dispatch(self, p):
        assert build_central_unit(p, "fs").name == "CU-FS"
        assert build_central_unit(p, "nlft").name == "CU-NLFT"
        with pytest.raises(ValueError):
            build_central_unit(p, "tmr")


class TestWheelSubsystemStructure:
    def test_fs_full_rbd_equals_ctmc(self, p):
        rbd = build_wn_fs_full_rbd(p)
        ctmc = build_wn_fs_full(p)
        for t in (1.0, 100.0, HOURS_PER_YEAR):
            assert rbd.reliability(t) == pytest.approx(ctmc.reliability(t), rel=1e-9)

    def test_fs_full_is_exponential_with_4_lambda(self, p):
        chain = build_wn_fs_full(p)
        t = 1000.0
        assert chain.reliability(t) == pytest.approx(
            math.exp(-4 * p.lambda_total * t), rel=1e-9
        )

    def test_fs_degraded_transitions_match_figure9(self, p):
        chain = build_wn_fs_degraded(p)
        assert rate_sum(chain, "0", "1") == pytest.approx(4 * p.lambda_p * p.coverage)
        assert rate_sum(chain, "0", "2") == pytest.approx(4 * p.lambda_t * p.coverage)
        assert rate_sum(chain, "0", "F") == pytest.approx(4 * p.uncovered_rate)
        assert rate_sum(chain, "1", "F") == pytest.approx(3 * p.lambda_total)
        assert rate_sum(chain, "2", "F") == pytest.approx(3 * p.lambda_total)

    def test_nlft_full_transitions_match_figure10(self, p):
        chain = build_wn_nlft_full(p)
        assert set(chain.states) == {"0", "F"}
        assert rate_sum(chain, "0", "F") == pytest.approx(4 * p.nlft_unmasked_rate)

    def test_nlft_degraded_transitions_match_figure11(self, p):
        chain = build_wn_nlft_degraded(p)
        assert set(chain.states) == {"0", "1", "2", "3", "F"}
        detected_t = 4 * p.lambda_t * p.coverage
        assert rate_sum(chain, "0", "2") == pytest.approx(detected_t * p.p_fail_silent)
        assert rate_sum(chain, "0", "3") == pytest.approx(detected_t * p.p_omission)
        for state in ("1", "2", "3"):
            assert rate_sum(chain, state, "F") == pytest.approx(3 * p.nlft_unmasked_rate)

    def test_degraded_mode_beats_full_mode(self, p):
        t = HOURS_PER_YEAR
        for node_type in ("fs", "nlft"):
            full = build_wheel_subsystem(p, node_type, "full").reliability(t)
            degraded = build_wheel_subsystem(p, node_type, "degraded").reliability(t)
            assert degraded > full

    def test_dispatch_rejects_unknown(self, p):
        with pytest.raises(ValueError):
            build_wheel_subsystem(p, "fs", "limp-home")


class TestSystemComposition:
    def test_system_is_product_of_subsystems(self, p):
        model = build_bbw_system(p, "nlft", "degraded")
        t = 2000.0
        subs = model.subsystem_reliability(t)
        assert model.reliability(t) == pytest.approx(
            subs["central_unit"] * subs["wheel_subsystem"], rel=1e-9
        )

    def test_all_configurations_built(self, p):
        models = build_all_configurations(p)
        assert set(models) == {
            ("fs", "full"), ("fs", "degraded"), ("nlft", "full"), ("nlft", "degraded")
        }

    def test_reliability_at_zero_is_one(self, p):
        for model in build_all_configurations(p).values():
            assert model.reliability(0.0) == pytest.approx(1.0)

    def test_invalid_configuration_rejected(self, p):
        with pytest.raises(ConfigurationError):
            build_bbw_system(p, "tmr", "degraded")
        with pytest.raises(ConfigurationError):
            build_bbw_system(p, "fs", "luxury")

    def test_perfect_coverage_and_masking_makes_wn_full_immortal_to_transients(self):
        """With C_D = 1 and P_T = 1 every transient is masked: the NLFT
        full-functionality subsystem only fails from permanent faults."""
        p = BbwParameters(coverage=1.0, p_tem=1.0, p_omission=0.0, p_fail_silent=0.0)
        chain = build_wn_nlft_full(p)
        t = 1000.0
        assert chain.reliability(t) == pytest.approx(
            math.exp(-4 * p.lambda_p * t), rel=1e-9
        )
