"""Central-unit control law: brake-force distribution (Section 3.1).

"The central unit handles the all-embracing control, distributing the
correct brake force to each wheel node."  The control law here:

* total demanded force = pedal position x friction-limited maximum;
* nominal split follows the static wheel load shares;
* **degraded mode**: force destined for failed wheel nodes is redistributed
  proportionally to the working wheels (capped at each tyre's limit), so
  three wheels brake harder when the fourth node is out — the paper's
  "brake force is distributed to the remaining fault-free wheel nodes".

All arithmetic is integer fixed-point so replicated executions compare
bit-exactly under TEM and across the duplex CU pair (replica determinism).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import ConfigurationError
from .pedal import PEDAL_SCALE
from .vehicle import VehicleParameters

#: Fixed-point scale for per-wheel force shares (per-mille).
SHARE_SCALE = 1_000


def nominal_shares(params: VehicleParameters) -> Tuple[int, ...]:
    """Static load shares as integer per-mille values."""
    shares = [int(round(s * SHARE_SCALE)) for s in params.load_shares]
    drift = SHARE_SCALE - sum(shares)
    shares[0] += drift  # keep exactly 1000 after rounding
    return tuple(shares)


def distribute_brake_force(
    pedal_sample: int,
    wheel_ok_mask: int,
    params: VehicleParameters = VehicleParameters(),
) -> Tuple[int, ...]:
    """Compute per-wheel force commands (N, integer).

    Parameters
    ----------
    pedal_sample:
        Pedal position as 0..PEDAL_SCALE fixed point.
    wheel_ok_mask:
        Bit i set = wheel node i is believed operational (from the
        membership view the CU builds out of received status frames).

    Returns the per-wheel commanded force in newtons; failed wheels get 0
    and their share is redistributed to the survivors, each capped at its
    tyre's friction limit.
    """
    if not 0 <= pedal_sample <= PEDAL_SCALE:
        raise ConfigurationError(f"pedal sample {pedal_sample} outside 0..{PEDAL_SCALE}")
    n = params.wheel_count
    working = [i for i in range(n) if wheel_ok_mask >> i & 1]
    total_demand = int(params.max_total_force) * pedal_sample // PEDAL_SCALE
    if not working or total_demand == 0:
        return tuple([0] * n)
    shares = nominal_shares(params)
    limits = [int(params.max_wheel_force(i)) for i in range(n)]
    commands = [0] * n
    # First pass: nominal share of the demand for working wheels.
    for i in working:
        commands[i] = total_demand * shares[i] // SHARE_SCALE
    # Redistribute the share of failed wheels over the working ones,
    # proportionally to their nominal shares, respecting tyre limits.
    working_share = sum(shares[i] for i in working)
    lost = total_demand - sum(commands[i] for i in working)
    if lost > 0 and working_share > 0:
        for i in working:
            commands[i] += lost * shares[i] // working_share
    # Saturate and do one more redistribution round of the clipped excess.
    excess = 0
    for i in working:
        if commands[i] > limits[i]:
            excess += commands[i] - limits[i]
            commands[i] = limits[i]
    if excess > 0:
        headroom = [(i, limits[i] - commands[i]) for i in working if commands[i] < limits[i]]
        total_headroom = sum(h for _, h in headroom)
        for i, room in headroom:
            grant = min(room, excess * room // total_headroom) if total_headroom else 0
            commands[i] += grant
    return tuple(commands)


def membership_mask(wheel_fresh: Sequence[bool]) -> int:
    """Fold per-wheel freshness flags into the CU's membership mask."""
    mask = 0
    for i, fresh in enumerate(wheel_fresh):
        if fresh:
            mask |= 1 << i
    return mask


def expected_deceleration(
    commands: Sequence[int], params: VehicleParameters = VehicleParameters()
) -> float:
    """Deceleration (m/s^2) the commanded forces should produce."""
    applied = sum(
        min(int(c), int(params.max_wheel_force(i))) for i, c in enumerate(commands)
    )
    return applied / params.mass_kg
