"""Longitudinal vehicle dynamics for the brake-by-wire example.

A deliberately simple but physically meaningful model: a point mass with
four brake actuators.  Each wheel's braking force is bounded by the tyre's
friction share, so losing a wheel node *does* degrade achievable
deceleration — the "degraded functionality mode" of Section 3.1 has a
measurable effect (longer stopping distance), which the functional
simulation (experiment E8) reports.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..errors import ConfigurationError

#: Standard gravity (m/s^2).
GRAVITY = 9.81


@dataclasses.dataclass
class VehicleParameters:
    """Static vehicle data (a mid-size passenger car)."""

    mass_kg: float = 1_600.0
    wheel_count: int = 4
    #: Tyre-road friction coefficient (dry asphalt).
    friction: float = 0.9
    #: Static vertical load share per wheel (front-biased).
    load_shares: Sequence[float] = (0.3, 0.3, 0.2, 0.2)

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise ConfigurationError("mass must be positive")
        if len(self.load_shares) != self.wheel_count:
            raise ConfigurationError("one load share per wheel required")
        if abs(sum(self.load_shares) - 1.0) > 1e-9:
            raise ConfigurationError("load shares must sum to 1")

    def max_wheel_force(self, wheel: int) -> float:
        """Friction-limited braking force of one wheel (N)."""
        return self.friction * self.mass_kg * GRAVITY * self.load_shares[wheel]

    @property
    def max_total_force(self) -> float:
        """Friction-limited total braking force (N)."""
        return self.friction * self.mass_kg * GRAVITY


class Vehicle:
    """Point-mass vehicle integrated with fixed steps.

    Wheel brake actuators hold the last commanded force; a wheel whose node
    is silent simply keeps receiving no updates, and the actuator is
    configured to *release* (fail-safe) when its command goes stale — the
    caller models that by commanding zero.
    """

    def __init__(self, params: VehicleParameters = VehicleParameters(), speed_mps: float = 30.0):
        if speed_mps < 0:
            raise ConfigurationError("speed must be non-negative")
        self.params = params
        self.speed_mps = speed_mps
        self.distance_m = 0.0
        self.time_s = 0.0
        self._wheel_forces: List[float] = [0.0] * params.wheel_count
        self.history: List["tuple[float, float, float]"] = []  # (t, v, x)

    # ------------------------------------------------------------------
    def command_wheel_force(self, wheel: int, force_n: float) -> None:
        """Set one wheel's brake force command (clamped to tyre limit)."""
        if not 0 <= wheel < self.params.wheel_count:
            raise ConfigurationError(f"wheel index {wheel} out of range")
        limit = self.params.max_wheel_force(wheel)
        self._wheel_forces[wheel] = min(max(0.0, float(force_n)), limit)

    def wheel_force(self, wheel: int) -> float:
        """Currently applied braking force of one wheel (N)."""
        return self._wheel_forces[wheel]

    @property
    def total_brake_force(self) -> float:
        """Total braking force currently applied (N)."""
        return sum(self._wheel_forces)

    @property
    def deceleration(self) -> float:
        """Current deceleration (m/s^2, non-negative)."""
        return self.total_brake_force / self.params.mass_kg

    @property
    def stopped(self) -> bool:
        return self.speed_mps <= 0.0

    # ------------------------------------------------------------------
    def step(self, dt_s: float) -> None:
        """Advance the dynamics by *dt_s* seconds (semi-implicit Euler)."""
        if dt_s <= 0:
            raise ConfigurationError("time step must be positive")
        if self.stopped:
            self.time_s += dt_s
            return
        decel = self.deceleration
        new_speed = max(0.0, self.speed_mps - decel * dt_s)
        # Average speed over the step keeps distance second-order accurate.
        self.distance_m += 0.5 * (self.speed_mps + new_speed) * dt_s
        self.speed_mps = new_speed
        self.time_s += dt_s
        self.history.append((self.time_s, self.speed_mps, self.distance_m))
