"""Experiment E3 — Figure 13: reliability of the subsystems.

The paper decomposes the BBW reliability into its central-unit and
wheel-node subsystems to locate the bottleneck: "The main reliability
bottleneck is the wheel node subsystem."  This driver reproduces the
per-subsystem curves and verifies that ordering.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from ..models import MODES, NODE_TYPES, BbwParameters, build_all_configurations
from ..models.bbw import subsystem_reliability_curves
from ..units import HOURS_PER_YEAR
from .asciiplot import render_chart, render_table


@dataclasses.dataclass
class Figure13Result:
    """Per-subsystem reliability curves for all configurations."""

    times_hours: List[float]
    #: key examples: "CU fs", "CU nlft", "WN fs/full", "WN nlft/degraded".
    curves: Dict[str, List[float]]
    r_one_year: Dict[str, float]

    @property
    def bottleneck_is_wheel_subsystem(self) -> bool:
        """The paper's observation, checked on the degraded NLFT system."""
        return (
            self.r_one_year["WN nlft/degraded"] < self.r_one_year["CU nlft"]
            and self.r_one_year["WN fs/degraded"] < self.r_one_year["CU fs"]
        )

    def render(self) -> str:
        chart = render_chart(
            {name: list(zip(self.times_hours, v)) for name, v in self.curves.items()},
            x_label="hours",
            y_label="R(t)",
            y_min=0.0,
            y_max=1.0,
        )
        rows = [(name, self.r_one_year[name]) for name in sorted(self.r_one_year)]
        table = render_table(["subsystem", "R(1 year)"], rows)
        verdict = (
            "bottleneck: wheel-node subsystem (matches paper)"
            if self.bottleneck_is_wheel_subsystem
            else "bottleneck: NOT the wheel-node subsystem (MISMATCH with paper)"
        )
        return "\n\n".join([chart, table, verdict])


def compute_figure13(
    params: BbwParameters | None = None, points: int = 25
) -> Figure13Result:
    """Reproduce Figure 13 (subsystem reliabilities over one year)."""
    params = params if params is not None else BbwParameters.paper()
    times = list(np.linspace(0.0, HOURS_PER_YEAR, points))
    # One grid solve per curve: the CU chain does not depend on the
    # functionality mode, so each node type has one.
    central_unit, wheels = subsystem_reliability_curves(build_all_configurations(params), times)
    curves: Dict[str, List[float]] = {}
    for node_type in NODE_TYPES:
        curves[f"CU {node_type}"] = central_unit[node_type]
        for mode in MODES:
            curves[f"WN {node_type}/{mode}"] = wheels[(node_type, mode)]
    r_one_year = {name: values[-1] for name, values in curves.items()}
    return Figure13Result(times_hours=times, curves=curves, r_one_year=r_one_year)


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="figure13",
    index="E3",
    title="Figure 13 - subsystem reliabilities",
    anchors=("Figure 13", "Section 5.2 (subsystem decomposition)"),
)
def _experiment(ctx) -> Figure13Result:
    return compute_figure13()
