"""Generalized n-of-required redundancy models.

The paper's introduction frames the core trade-off: systems without
fail-silence need 2f+1 nodes and voting, fail-silent nodes need only f+1,
and NLFT further reduces how much redundancy a given dependability target
costs.  The concrete models of Section 3.2 are instances for n = 2
(duplex CU) and n = 4 wheel nodes; this module provides the *general*
builder so redundancy-dimensioning studies ("how many nodes do I need?")
can be run for any (n, required).

State space
-----------
A subsystem of *n* identical nodes needs *required* of them working.  A
state is the outage vector ``(p, r, o)``:

* ``p`` nodes permanently down,
* ``r`` nodes in fail-silent restart (repair rate mu_R each),
* ``o`` nodes in omission recovery (repair rate mu_OM each),

subject to ``p + r + o <= n - required`` (one more outage would drop the
working count below *required*, which is the absorbing failure state F).
Per-node fault behaviour follows Section 3.2.1 exactly (FS or NLFT
semantics); non-covered errors go straight to F (the paper's pessimistic
rule).

For (n=2, required=1) and (n=4, required in {3, 4}) these chains reproduce
the paper's Figures 6, 7, 9, 10, 11 transition for transition — verified in
the test suite.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..reliability import MarkovChain
from ..units import HOURS_PER_YEAR
from .parameters import BbwParameters

STATE_FAILED = "F"


def _state_name(p: int, r: int, o: int) -> str:
    return f"p{p}r{r}o{o}"


def build_redundant_subsystem(
    params: BbwParameters,
    node_type: str,
    n: int,
    required: int,
    name: Optional[str] = None,
    permanent_repair_rate: float = 0.0,
    system_repair_rate: float = 0.0,
) -> MarkovChain:
    """CTMC of an n-node subsystem needing *required* working nodes.

    Parameters
    ----------
    node_type:
        ``"fs"`` or ``"nlft"`` (Section 3.2.1 semantics).
    n / required:
        Replication level and the minimum number of working nodes.
    permanent_repair_rate:
        Per-node replacement rate for permanently failed nodes (a service
        visit; the paper's pure-reliability study uses 0).  With a positive
        rate the model becomes an *availability* model — see
        :mod:`repro.reliability.availability`.
    system_repair_rate:
        Repair rate out of the system-failure state F back to fully
        working (vehicle towed and repaired); makes the chain irreducible.
    """
    if permanent_repair_rate < 0 or system_repair_rate < 0:
        raise ConfigurationError("repair rates must be non-negative")
    if node_type not in ("fs", "nlft"):
        raise ConfigurationError(f"node_type must be 'fs' or 'nlft', got {node_type!r}")
    if not 1 <= required <= n:
        raise ConfigurationError(f"need 1 <= required <= n, got required={required}, n={n}")
    budget = n - required
    states: List[Tuple[int, int, int]] = [
        (p, r, o)
        for p, r, o in itertools.product(range(budget + 1), repeat=3)
        if p + r + o <= budget
    ]
    chain = MarkovChain(
        [_state_name(*s) for s in states] + [STATE_FAILED],
        name=name or f"{node_type.upper()}-{required}oo{n}",
    )
    chain.set_initial(_state_name(0, 0, 0))

    detected_transient_share = params.lambda_t * params.coverage
    for p, r, o in states:
        here = _state_name(p, r, o)
        working = n - p - r - o

        def go(dp: int, dr: int, do: int, rate: float, label: str) -> None:
            if rate <= 0.0:
                return
            np_, nr, no = p + dp, r + dr, o + do
            if np_ + nr + no > budget:
                chain.add_transition(here, STATE_FAILED, rate, label=label + " -> failure")
            else:
                chain.add_transition(here, _state_name(np_, nr, no), rate, label=label)

        # Faults in the working nodes.
        go(1, 0, 0, working * params.lambda_p * params.coverage, "detected permanent")
        if node_type == "fs":
            go(0, 1, 0, working * detected_transient_share, "detected transient (restart)")
        else:
            go(
                0, 1, 0,
                working * detected_transient_share * params.p_fail_silent,
                "detected transient -> fail-silent",
            )
            go(
                0, 0, 1,
                working * detected_transient_share * params.p_omission,
                "detected transient -> omission",
            )
            # Masked share (P_T) stays in place: no transition.
        chain.add_transition(
            here, STATE_FAILED, working * params.uncovered_rate,
            label="non-covered error",
        )
        # Repairs (each outstanding repair proceeds independently).
        if r > 0:
            chain.add_transition(
                here, _state_name(p, r - 1, o), r * params.mu_restart, label="restart done"
            )
        if o > 0:
            chain.add_transition(
                here, _state_name(p, r, o - 1), o * params.mu_omission,
                label="omission recovery done",
            )
        if p > 0 and permanent_repair_rate > 0:
            chain.add_transition(
                here, _state_name(p - 1, r, o), p * permanent_repair_rate,
                label="permanent fault repaired (service visit)",
            )
    if system_repair_rate > 0:
        chain.add_transition(
            STATE_FAILED, _state_name(0, 0, 0), system_repair_rate,
            label="system repaired after failure",
        )
    return chain


def up_states(chain: MarkovChain) -> List[str]:
    """The operational states of a generalized-redundancy chain
    (everything except the system-failure state F)."""
    return [state for state in chain.states if state != STATE_FAILED]


@dataclasses.dataclass(frozen=True)
class RedundancyPoint:
    """One (configuration, measure) row of a redundancy study."""

    node_type: str
    n: int
    required: int
    reliability_one_year: float
    mttf_years: float

    @property
    def label(self) -> str:
        return f"{self.node_type} {self.required}oo{self.n}"


def redundancy_study(
    params: BbwParameters,
    configurations: List[Tuple[str, int, int]],
    mission_hours: float = HOURS_PER_YEAR,
) -> List[RedundancyPoint]:
    """Evaluate R(mission) and MTTF for several redundancy levels.

    *configurations* is a list of ``(node_type, n, required)`` triples.
    This powers the paper's cost argument: how much replication a given
    dependability target costs with FS vs NLFT nodes.
    """
    points = []
    for node_type, n, required in configurations:
        chain = build_redundant_subsystem(params, node_type, n, required)
        points.append(
            RedundancyPoint(
                node_type=node_type,
                n=n,
                required=required,
                reliability_one_year=chain.reliability(mission_hours),
                mttf_years=chain.mttf() / HOURS_PER_YEAR,
            )
        )
    return points


def nodes_needed(
    params: BbwParameters,
    node_type: str,
    required: int,
    target_reliability: float,
    mission_hours: float,
    n_max: int = 12,
) -> Optional[int]:
    """Smallest n achieving the reliability target, or None if n_max fails.

    Answers the procurement question behind the paper's cost argument
    directly: NLFT typically reaches a target with fewer nodes than FS.
    """
    if not 0.0 < target_reliability < 1.0:
        raise ConfigurationError("target reliability must be in (0, 1)")
    for n in range(required, n_max + 1):
        chain = build_redundant_subsystem(params, node_type, n, required)
        if chain.reliability(mission_hours) >= target_reliability:
            return n
    return None
