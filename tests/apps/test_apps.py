"""Tests of the brake-by-wire application components."""

import pytest

from repro.apps import (
    PEDAL_SCALE,
    BbwConfig,
    BbwSimulation,
    Vehicle,
    VehicleParameters,
    distribute_brake_force,
    expected_deceleration,
    membership_mask,
    nominal_shares,
    step_brake,
    wheel_force_step,
)
from repro.apps.wheel_controller import STATUS_OK, compute_wheel_output
from repro.errors import ConfigurationError
from repro.faults.types import FaultType


class TestVehicle:
    def test_full_braking_from_30mps_stops_in_about_51m(self):
        vehicle = Vehicle(speed_mps=30.0)
        params = vehicle.params
        for wheel in range(4):
            vehicle.command_wheel_force(wheel, params.max_wheel_force(wheel))
        while not vehicle.stopped:
            vehicle.step(0.005)
        # v^2 / (2 * mu * g) = 900 / (2 * 0.9 * 9.81) ~= 51.0 m.
        assert vehicle.distance_m == pytest.approx(51.0, abs=0.5)

    def test_force_clamped_to_friction_limit(self):
        vehicle = Vehicle()
        vehicle.command_wheel_force(0, 1e9)
        assert vehicle.wheel_force(0) == pytest.approx(
            vehicle.params.max_wheel_force(0)
        )

    def test_no_force_means_constant_speed(self):
        vehicle = Vehicle(speed_mps=20.0)
        vehicle.step(1.0)
        assert vehicle.speed_mps == 20.0

    def test_three_wheel_braking_is_weaker(self):
        full = Vehicle(speed_mps=30.0)
        degraded = Vehicle(speed_mps=30.0)
        for wheel in range(4):
            full.command_wheel_force(wheel, full.params.max_wheel_force(wheel))
        for wheel in range(3):
            degraded.command_wheel_force(wheel, degraded.params.max_wheel_force(wheel))
        while not full.stopped:
            full.step(0.005)
        while not degraded.stopped:
            degraded.step(0.005)
        assert degraded.distance_m > full.distance_m * 1.1

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            VehicleParameters(mass_kg=-1)
        with pytest.raises(ConfigurationError):
            VehicleParameters(load_shares=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ConfigurationError):
            Vehicle().step(0.0)
        with pytest.raises(ConfigurationError):
            Vehicle().command_wheel_force(9, 0)


class TestPedalProfiles:
    def test_step(self):
        pedal = step_brake(1.0, position=0.8)
        assert pedal.position(999_999) == 0.0
        assert pedal.position(1_000_000) == 0.8
        assert pedal.sample(1_000_000) == 800

    def test_out_of_range_profile_rejected(self):
        from repro.apps.pedal import PedalProfile

        bad = PedalProfile(lambda t: 2.0, name="bad")
        with pytest.raises(ConfigurationError):
            bad.position(0)


class TestBrakeDistribution:
    def test_nominal_shares_sum_to_1000(self):
        assert sum(nominal_shares(VehicleParameters())) == 1000

    def test_all_wheels_get_load_proportional_commands(self):
        commands = distribute_brake_force(PEDAL_SCALE, 0b1111)
        assert len(commands) == 4
        assert commands[0] > commands[2]  # front biased
        assert all(c > 0 for c in commands)

    def test_zero_pedal_commands_nothing(self):
        assert distribute_brake_force(0, 0b1111) == (0, 0, 0, 0)

    def test_failed_wheel_gets_zero_and_share_redistributed(self):
        nominal = distribute_brake_force(500, 0b1111)
        degraded = distribute_brake_force(500, 0b0111)  # wheel 4 failed
        assert degraded[3] == 0
        assert sum(degraded) == pytest.approx(sum(nominal), rel=0.02)
        assert all(d >= n for d, n in zip(degraded[:3], nominal[:3]))

    def test_full_braking_with_failed_wheel_saturates_at_tyre_limits(self):
        params = VehicleParameters()
        commands = distribute_brake_force(PEDAL_SCALE, 0b0111, params)
        for wheel in range(3):
            assert commands[wheel] <= int(params.max_wheel_force(wheel))
        # At full pedal the survivors cannot absorb the lost share fully.
        assert sum(commands) < int(params.max_total_force)

    def test_no_wheels_working(self):
        assert distribute_brake_force(800, 0) == (0, 0, 0, 0)

    def test_membership_mask(self):
        assert membership_mask([True, False, True, True]) == 0b1101

    def test_expected_deceleration_at_full_braking(self):
        commands = distribute_brake_force(PEDAL_SCALE, 0b1111)
        decel = expected_deceleration(commands)
        assert decel == pytest.approx(0.9 * 9.81, rel=0.02)

    def test_determinism_for_replicas(self):
        a = distribute_brake_force(777, 0b1011)
        b = distribute_brake_force(777, 0b1011)
        assert a == b

    def test_invalid_pedal_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            distribute_brake_force(PEDAL_SCALE + 1, 0b1111)


class TestWheelController:
    def test_slew_limits_force_buildup(self):
        force = wheel_force_step(commanded_n=3_000, current_n=0, wheel=0,
                                 slew_per_period=1_000)
        assert force == 1_000
        force = wheel_force_step(3_000, force, 0, slew_per_period=1_000)
        assert force == 2_000
        force = wheel_force_step(3_000, force, 0, slew_per_period=1_000)
        assert force == 3_000  # reached the (sub-limit) command

    def test_force_clamped_to_tyre_limit(self):
        params = VehicleParameters()
        limit = int(params.max_wheel_force(0))
        force = limit
        force = wheel_force_step(10 * limit, force, 0)
        assert force == limit

    def test_release_also_slew_limited(self):
        force = wheel_force_step(0, 6_000, 0, slew_per_period=4_000)
        assert force == 2_000

    def test_compute_wheel_output_status(self):
        force, status = compute_wheel_output(1_000, 0, 0)
        assert status == STATUS_OK
        assert force == 1_000


@pytest.mark.slow
class TestBbwFunctionalSimulation:
    def test_clean_stop(self):
        simulation = BbwSimulation(BbwConfig(pedal=step_brake(0.2)))
        simulation.run(6.0)
        summary = simulation.summary()
        assert summary["stopped"]
        assert summary["full_ok"] and summary["degraded_ok"]
        assert 50 < summary["distance_m"] < 65

    def test_wheel_node_loss_degrades_but_still_stops(self):
        clean = BbwSimulation(BbwConfig(pedal=step_brake(0.2)))
        clean.run(8.0)
        faulty = BbwSimulation(BbwConfig(pedal=step_brake(0.2)))
        faulty.kill_node("wn2", at_s=1.0)
        faulty.run(8.0)
        s_clean, s_faulty = clean.summary(), faulty.summary()
        assert s_faulty["stopped"]
        assert not s_faulty["full_ok"]
        assert s_faulty["degraded_ok"]
        assert s_faulty["wheels_operational"] == 3
        assert s_faulty["distance_m"] > s_clean["distance_m"] * 1.05

    def test_transient_fault_masked_by_nlft_system(self):
        simulation = BbwSimulation(BbwConfig(pedal=step_brake(0.2), seed=5))
        simulation.inject_fault("wn1", FaultType.TRANSIENT, at_s=1.0)
        simulation.inject_fault("cu_a", FaultType.TRANSIENT, at_s=1.5)
        simulation.run(6.0)
        summary = simulation.summary()
        assert summary["stopped"]
        assert summary["degraded_ok"]

    def test_cu_duplex_survives_one_replica_loss(self):
        simulation = BbwSimulation(BbwConfig(pedal=step_brake(0.2)))
        simulation.kill_node("cu_a", at_s=0.5)
        simulation.run(6.0)
        summary = simulation.summary()
        assert summary["stopped"]  # cu_b kept distributing force
        assert summary["degraded_ok"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BbwConfig(node_kind="tmr")
        with pytest.raises(ConfigurationError):
            BbwConfig(control_period=1_000, task_wcet=600)
