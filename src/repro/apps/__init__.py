"""The brake-by-wire example application (Section 3.1, Figure 4).

A duplex central unit distributing brake force to four simplex wheel nodes
over a FlexRay-like bus, braking a point-mass vehicle — runnable with NLFT
or fail-silent nodes under fault injection.
"""

from .bbw_system import (
    FRAME_CU_A,
    FRAME_CU_B,
    FRAME_WHEEL_BASE,
    NODE_NAMES,
    WHEEL_NODES,
    BbwConfig,
    BbwSimulation,
    SystemMonitor,
)
from .brake_controller import (
    SHARE_SCALE,
    distribute_brake_force,
    expected_deceleration,
    membership_mask,
    nominal_shares,
)
from .pedal import PEDAL_SCALE, PedalProfile, step_brake
from .vehicle import GRAVITY, Vehicle, VehicleParameters
from .wheel_controller import (
    DEFAULT_SLEW_PER_PERIOD,
    STATUS_OK,
    compute_wheel_output,
    wheel_force_step,
)

__all__ = [
    "BbwConfig",
    "BbwSimulation",
    "DEFAULT_SLEW_PER_PERIOD",
    "FRAME_CU_A",
    "FRAME_CU_B",
    "FRAME_WHEEL_BASE",
    "GRAVITY",
    "NODE_NAMES",
    "PEDAL_SCALE",
    "PedalProfile",
    "SHARE_SCALE",
    "STATUS_OK",
    "SystemMonitor",
    "Vehicle",
    "VehicleParameters",
    "WHEEL_NODES",
    "compute_wheel_output",
    "distribute_brake_force",
    "expected_deceleration",
    "membership_mask",
    "nominal_shares",
    "step_brake",
    "wheel_force_step",
]
