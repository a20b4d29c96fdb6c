"""Experiment E4 — Figure 14: reliability after five hours for varying
error-detection coverage and transient fault rate.

The paper evaluates the degraded-functionality BBW system at t = 5 h while
sweeping (i) the transient fault rate over several orders of magnitude and
(ii) the coverage C_D.  Reported findings to reproduce:

* coverage has a significant influence on reliability;
* the fault rate has negligible impact while it is far below the repair
  rate;
* the NLFT advantage grows with the fault rate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from ..models import BbwParameters, build_bbw_system
from ..reliability import sweep_solver
from .asciiplot import render_chart, render_table

#: Default sweep axes: fault-rate multipliers (log-spaced) and coverages.
DEFAULT_RATE_SCALES = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
DEFAULT_COVERAGES = (0.9, 0.99, 0.999, 0.9999)
MISSION_HOURS = 5.0


@dataclasses.dataclass
class Figure14Result:
    """R(5 h) grids for both node types."""

    rate_scales: List[float]
    coverages: List[float]
    #: reliability[node_type][(coverage, scale)] -> R(5h)
    reliability: Dict[str, Dict[Tuple[float, float], float]]

    def series(self, node_type: str, coverage: float) -> List[Tuple[float, float]]:
        """(rate scale, R) pairs for one coverage curve."""
        grid = self.reliability[node_type]
        return sorted(
            (scale, grid[(coverage, scale)]) for scale in self.rate_scales
        )

    def nlft_advantage(self, coverage: float, scale: float) -> float:
        """R_nlft - R_fs at one grid point."""
        return (
            self.reliability["nlft"][(coverage, scale)]
            - self.reliability["fs"][(coverage, scale)]
        )

    def render(self) -> str:
        charts = []
        for node_type in ("fs", "nlft"):
            chart_series = {
                f"C_D={coverage}": self.series(node_type, coverage)
                for coverage in self.coverages
            }
            charts.append(
                f"[{node_type.upper()} nodes, degraded mode, R(5 h) vs rate scale]\n"
                + render_chart(chart_series, x_label="lambda_T scale", y_label="R(5h)")
            )
        rows = []
        for coverage in self.coverages:
            for scale in self.rate_scales:
                rows.append(
                    (
                        coverage,
                        scale,
                        self.reliability["fs"][(coverage, scale)],
                        self.reliability["nlft"][(coverage, scale)],
                        self.nlft_advantage(coverage, scale),
                    )
                )
        table = render_table(
            ["C_D", "rate scale", "R_fs(5h)", "R_nlft(5h)", "NLFT advantage"], rows
        )
        return "\n\n".join(charts + [table])


def compute_figure14(
    params: BbwParameters | None = None,
    rate_scales: Sequence[float] = DEFAULT_RATE_SCALES,
    coverages: Sequence[float] = DEFAULT_COVERAGES,
    mission_hours: float = MISSION_HOURS,
) -> Figure14Result:
    """Reproduce Figure 14 (R(5 h) vs fault rate for several coverages).

    The whole parameter grid is solved with two stacked matrix
    exponentials per node type (one per subsystem chain —
    :func:`repro.reliability.sweep_solver.reliability_batch`).  Every grid
    point is bit-identical to the point-by-point
    ``build_bbw_system(...).reliability`` evaluation
    (``tests/reliability/test_sweep_solver`` gates it).
    """
    base = params if params is not None else BbwParameters.paper()
    grid = [
        (coverage, scale) for coverage in coverages for scale in rate_scales
    ]
    # One parameter record per grid point, shared by both node types.
    scaled = [base.with_transient_scale(s) for s in rate_scales]
    points = [p.with_coverage(c) for c in coverages for p in scaled]
    reliability: Dict[str, Dict[Tuple[float, float], float]] = {"fs": {}, "nlft": {}}
    for node_type in ("fs", "nlft"):
        models = [build_bbw_system(point, node_type, "degraded") for point in points]
        r_cu = sweep_solver.reliability_batch(
            [m.central_unit for m in models], [mission_hours]
        )[:, 0]
        r_wn = sweep_solver.reliability_batch(
            [m.wheel_subsystem for m in models], [mission_hours]
        )[:, 0]
        # Two-input OR over independent subsystems: R = R_CU * R_WN.
        for point, cu, wn in zip(grid, r_cu, r_wn):
            reliability[node_type][point] = float(cu * wn)
    return Figure14Result(
        rate_scales=list(rate_scales),
        coverages=list(coverages),
        reliability=reliability,
    )


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="figure14",
    index="E4",
    title="Figure 14 - coverage / fault-rate sensitivity",
    anchors=("Figure 14", "Section 5.3 (sensitivity analysis)"),
)
def _experiment(ctx) -> Figure14Result:
    return compute_figure14()
