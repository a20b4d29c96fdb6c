"""The paper's brake-by-wire dependability models (Section 3.2).

This package reproduces Figures 5-11 as executable model builders on top of
:mod:`repro.reliability`, parameterised by :class:`~repro.models.parameters.
BbwParameters` (the Section 3.3 assignment).
"""

from .bbw import (
    MODES,
    NODE_TYPES,
    BbwSystemModel,
    build_all_configurations,
    build_bbw_system,
)
from .central_unit import (
    STATE_FAILED,
    STATE_OK,
    STATE_OMISSION,
    STATE_PERMANENT,
    STATE_RESTART,
    build_central_unit,
    build_cu_fs,
    build_cu_nlft,
)
from .parameters import (
    CENTRAL_UNIT_REPLICAS,
    COVERAGE,
    DEGRADED_MIN_WHEEL_NODES,
    OMISSION_REPAIR_RATE,
    PERMANENT_FAULT_RATE,
    P_FAIL_SILENT,
    P_OMISSION,
    P_TEM_MASKED,
    RESTART_REPAIR_RATE,
    TRANSIENT_FAULT_RATE,
    WHEEL_NODE_COUNT,
    BbwParameters,
)
from .generalized import (
    RedundancyPoint,
    build_redundant_subsystem,
    nodes_needed,
    redundancy_study,
    up_states,
)
from .wheel_nodes import (
    build_wheel_subsystem,
    build_wn_fs_degraded,
    build_wn_fs_full,
    build_wn_fs_full_rbd,
    build_wn_nlft_degraded,
    build_wn_nlft_full,
)

__all__ = [
    "BbwParameters",
    "BbwSystemModel",
    "CENTRAL_UNIT_REPLICAS",
    "COVERAGE",
    "DEGRADED_MIN_WHEEL_NODES",
    "MODES",
    "NODE_TYPES",
    "OMISSION_REPAIR_RATE",
    "PERMANENT_FAULT_RATE",
    "P_FAIL_SILENT",
    "P_OMISSION",
    "P_TEM_MASKED",
    "RESTART_REPAIR_RATE",
    "RedundancyPoint",
    "STATE_FAILED",
    "STATE_OK",
    "STATE_OMISSION",
    "STATE_PERMANENT",
    "STATE_RESTART",
    "TRANSIENT_FAULT_RATE",
    "WHEEL_NODE_COUNT",
    "build_all_configurations",
    "build_bbw_system",
    "build_central_unit",
    "build_cu_fs",
    "build_cu_nlft",
    "build_redundant_subsystem",
    "build_wheel_subsystem",
    "nodes_needed",
    "redundancy_study",
    "up_states",
    "build_wn_fs_degraded",
    "build_wn_fs_full",
    "build_wn_fs_full_rbd",
    "build_wn_nlft_degraded",
    "build_wn_nlft_full",
]
