"""Experiment E1 — Figure 12: BBW system reliability over one year.

Four curves (FS/NLFT x full/degraded functionality) of R(t) for
t in [0, 8760 h], computed from the hierarchical models, plus the paper's
headline comparison: with NLFT nodes in degraded mode, reliability after one
year rises from ~0.45 to ~0.70 (+55%).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from ..models import BbwParameters, build_all_configurations
from ..models.bbw import subsystem_reliability_curves
from ..units import HOURS_PER_YEAR
from .asciiplot import render_chart, render_table

#: Paper anchor values (read from Figure 12 / Section 3.4 prose).
PAPER_R_1Y_FS_DEGRADED = 0.45
PAPER_R_1Y_NLFT_DEGRADED = 0.70
PAPER_IMPROVEMENT = 0.55


@dataclasses.dataclass
class Figure12Result:
    """All series and headline numbers of the reproduced figure."""

    times_hours: List[float]
    curves: Dict[str, List[float]]  # key "fs/degraded" etc.
    r_one_year: Dict[str, float]
    improvement_degraded: float

    def render(self) -> str:
        chart = render_chart(
            {
                name: list(zip(self.times_hours, values))
                for name, values in self.curves.items()
            },
            x_label="hours",
            y_label="R(t)",
            y_min=0.0,
            y_max=1.0,
        )
        rows = [
            (name, self.r_one_year[name]) for name in sorted(self.r_one_year)
        ]
        table = render_table(
            ["configuration", "R(1 year)"], rows, title="Reliability after one year"
        )
        headline = (
            f"NLFT vs FS (degraded): +{self.improvement_degraded * 100:.1f}% "
            f"(paper: +{PAPER_IMPROVEMENT * 100:.0f}%)"
        )
        return "\n\n".join([chart, table, headline])


def compute_figure12(
    params: BbwParameters | None = None, points: int = 25
) -> Figure12Result:
    """Reproduce Figure 12 (R(t) curves over one year, 4 configurations)."""
    params = params if params is not None else BbwParameters.paper()
    times = list(np.linspace(0.0, HOURS_PER_YEAR, points))
    # One grid solve per distinct subsystem chain instead of a point solve
    # per time (the grid ends at one year, so R(1 y) is the last sample).
    central_unit, wheels = subsystem_reliability_curves(build_all_configurations(params), times)
    curves: Dict[str, List[float]] = {}
    r_one_year: Dict[str, float] = {}
    for (node_type, mode), wheel in wheels.items():
        key = f"{node_type}/{mode}"
        curves[key] = [cu * wn for cu, wn in zip(central_unit[node_type], wheel)]
        r_one_year[key] = curves[key][-1]
    improvement = r_one_year["nlft/degraded"] / r_one_year["fs/degraded"] - 1.0
    return Figure12Result(
        times_hours=times,
        curves=curves,
        r_one_year=r_one_year,
        improvement_degraded=improvement,
    )


def series_rows(result: Figure12Result) -> List[Tuple[float, float, float, float, float]]:
    """Figure data as (t, R_fs_full, R_fs_deg, R_nlft_full, R_nlft_deg) rows."""
    return [
        (
            t,
            result.curves["fs/full"][i],
            result.curves["fs/degraded"][i],
            result.curves["nlft/full"][i],
            result.curves["nlft/degraded"][i],
        )
        for i, t in enumerate(result.times_hours)
    ]


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="figure12",
    index="E1",
    title="Figure 12 - system reliability over one year",
    anchors=("Figure 12", "Section 5.2 (reliability analysis)"),
)
def _experiment(ctx) -> Figure12Result:
    return compute_figure12()
