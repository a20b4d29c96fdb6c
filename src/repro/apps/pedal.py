"""Brake-pedal input for the brake-by-wire example (Figure 4).

The pedal is sampled by the central unit's control task each period.  A
:class:`PedalProfile` maps simulated time to a pedal position in [0, 1];
:func:`step_brake` is the driver profile the braking runs use.

Pedal positions travel the network as fixed-point integers
(:data:`PEDAL_SCALE` steps = fully pressed) because task results and frame
payloads are integer words — and because TEM's bit-exact comparison needs
deterministic integer arithmetic.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigurationError
from ..units import seconds

#: Fixed-point scale: pedal position 1.0 == PEDAL_SCALE.
PEDAL_SCALE = 1_000


class PedalProfile:
    """A time-indexed pedal-position source.

    Parameters
    ----------
    position_fn:
        Maps simulated time (ticks) to pedal position in [0, 1].
    """

    def __init__(self, position_fn: Callable[[int], float], name: str = "pedal"):
        self._fn = position_fn
        self.name = name

    def position(self, now_ticks: int) -> float:
        """Pedal position in [0, 1] at *now_ticks*."""
        value = float(self._fn(now_ticks))
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ConfigurationError(
                f"pedal profile {self.name!r} returned {value} outside [0,1]"
            )
        return min(max(value, 0.0), 1.0)

    def sample(self, now_ticks: int) -> int:
        """Fixed-point sample (0..PEDAL_SCALE) for network transport."""
        return int(round(self.position(now_ticks) * PEDAL_SCALE))


def step_brake(at_s: float, position: float = 1.0) -> PedalProfile:
    """Full (or partial) braking applied at *at_s* seconds."""
    at_ticks = seconds(at_s)
    return PedalProfile(
        lambda t: position if t >= at_ticks else 0.0,
        name=f"step({position}@{at_s}s)",
    )
