"""Experiment E8 — discrete-event cross-validation of the analytic models.

Two studies:

1. **Mission Monte-Carlo** — behavioural FS/NLFT nodes (the Markov models'
   stochastic twins) live through year-long missions under Poisson fault
   arrivals with the paper's rates; the empirical survival fraction is
   compared against the analytical R(t) from :mod:`repro.models`.  This
   validates that the Markov transition structures in DESIGN.md actually
   encode the node semantics of Section 3.2.1.

2. **Functional braking comparison** — the full kernel-backed BBW system
   (bus, TEM, vehicle) brakes under an identical burst of fault arrivals
   with FS vs NLFT nodes, demonstrating the mechanism-level difference:
   the NLFT system masks the faults and keeps all four wheels braking,
   while the FS system silences nodes and brakes degraded.

Known modelling deltas (documented, both negligible at the paper's rates):
repairs are deterministic 3 s / 1.6 s in the simulation but exponential in
the Markov models; faults arriving during a repair are ignored.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..apps.bbw_system import BbwConfig, BbwSimulation
from ..apps.pedal import step_brake
from ..faults.injector import PoissonInjector
from ..faults.types import FaultType
from ..harness import CampaignSupervisor, ChaosPolicy, SupervisorConfig
from ..models import BbwParameters, build_bbw_system
from ..obs.progress import ProgressReporter
from ..node import FailSilentNode, NlftBehaviouralNode, NodeBase, NodeStatus
from ..sim import RandomStreams, Simulator
from ..units import US_PER_SECOND
from .asciiplot import render_table

_TICKS_PER_HOUR = 3_600 * US_PER_SECOND

CU_NAMES = ("cu_a", "cu_b")
WN_NAMES = ("wn1", "wn2", "wn3", "wn4")


@dataclasses.dataclass
class MissionOutcome:
    """One replica's result."""

    failed_full_at: Optional[int]
    failed_degraded_at: Optional[int]

    def survived_degraded(self) -> bool:
        return self.failed_degraded_at is None

    def survived_full(self) -> bool:
        return self.failed_full_at is None


class _MissionMonitor:
    """Event-driven evaluation of the paper's two failure criteria."""

    def __init__(self, sim: Simulator, cu_nodes: List[NodeBase], wn_nodes: List[NodeBase]):
        self.sim = sim
        self.cu_nodes = cu_nodes
        self.wn_nodes = wn_nodes
        self.failed_full_at: Optional[int] = None
        self.failed_degraded_at: Optional[int] = None
        for node in [*cu_nodes, *wn_nodes]:
            node.add_observer(self._changed)
            node.add_undetected_observer(self._undetected)

    def _evaluate(self) -> None:
        cu_ok = any(n.operational for n in self.cu_nodes)
        wheels = sum(1 for n in self.wn_nodes if n.operational)
        if (not cu_ok or wheels < 4) and self.failed_full_at is None:
            self.failed_full_at = self.sim.now
        if (not cu_ok or wheels < 3) and self.failed_degraded_at is None:
            self.failed_degraded_at = self.sim.now
            self.sim.stop()  # both criteria decided; replica can end

    def _changed(self, node: NodeBase, old: NodeStatus, new: NodeStatus) -> None:
        self._evaluate()

    def _undetected(self, node: NodeBase) -> None:
        # Pessimistic rule: a non-covered error fails the whole system.
        if self.failed_full_at is None:
            self.failed_full_at = self.sim.now
        if self.failed_degraded_at is None:
            self.failed_degraded_at = self.sim.now
            self.sim.stop()


def run_mission_replica(
    node_type: str,
    params: BbwParameters,
    mission_hours: float,
    seed: int,
) -> MissionOutcome:
    """One mission of the six-node BBW system with behavioural nodes."""
    sim = Simulator()
    streams = RandomStreams(seed)

    def make_node(name: str) -> NodeBase:
        rng = streams.get(f"node:{name}")
        if node_type == "fs":
            return FailSilentNode(sim, name, coverage=params.coverage, rng=rng)
        return NlftBehaviouralNode(
            sim, name,
            coverage=params.coverage,
            p_tem=params.p_tem,
            p_omission=params.p_omission,
            p_fail_silent=params.p_fail_silent,
            rng=rng,
        )

    cu_nodes = [make_node(name) for name in CU_NAMES]
    wn_nodes = [make_node(name) for name in WN_NAMES]
    all_nodes = [*cu_nodes, *wn_nodes]
    monitor = _MissionMonitor(sim, cu_nodes, wn_nodes)
    victims = [node.inject_fault for node in all_nodes]
    transient = PoissonInjector(
        sim, streams.get("faults:transient"), params.lambda_t, victims,
        fault_type=FaultType.TRANSIENT,
    )
    permanent = PoissonInjector(
        sim, streams.get("faults:permanent"), params.lambda_p, victims,
        fault_type=FaultType.PERMANENT,
    )
    transient.start()
    permanent.start()
    sim.run(until=int(mission_hours * _TICKS_PER_HOUR))
    return MissionOutcome(
        failed_full_at=monitor.failed_full_at,
        failed_degraded_at=monitor.failed_degraded_at,
    )


@dataclasses.dataclass
class SimulationStudyResult:
    """Monte-Carlo survival fractions vs analytical reliabilities."""

    replicas: int
    mission_hours: float
    empirical: Dict[str, float]  # key "fs/degraded" etc.
    analytical: Dict[str, float]
    #: Replicas that actually completed per node type (graceful partial
    #: results: lost replicas shrink the sample, they do not bias it).
    completed: Optional[Dict[str, int]] = None

    def render(self) -> str:
        rows = [
            (key, self.empirical[key], self.analytical[key],
             self.empirical[key] - self.analytical[key])
            for key in sorted(self.empirical)
        ]
        text = render_table(
            ["configuration", "simulated R", "analytical R", "delta"],
            rows,
            title=(
                f"Monte-Carlo ({self.replicas} replicas, "
                f"{self.mission_hours:.0f} h missions) vs Markov models"
            ),
        )
        if self.completed is not None and any(
            count < self.replicas for count in self.completed.values()
        ):
            text += (
                "\nNOTE: partial study — completed replicas: "
                + ", ".join(
                    f"{kind}: {count}/{self.replicas}"
                    for kind, count in sorted(self.completed.items())
                )
            )
        return text


def _mission_trial(
    payload: "tuple[str, float, BbwParameters]", seed: int
) -> "dict[str, Optional[int]]":
    """One mission replica (supervisor trial function).

    The per-replica seed comes from the supervisor's deterministic
    derivation, so fs and nlft studies (run as two campaigns with the same
    master seed) share common random numbers per replica index, and a
    resumed study is bit-identical to an uninterrupted one.
    """
    node_type, mission_hours, params = payload
    outcome = run_mission_replica(node_type, params, mission_hours, seed=seed)
    return {
        "failed_full_at": outcome.failed_full_at,
        "failed_degraded_at": outcome.failed_degraded_at,
    }


def run_simulation_study(
    replicas: int = 300,
    mission_hours: float = 8_760.0,
    params: Optional[BbwParameters] = None,
    seed: int = 7,
    workers: int = 0,
    timeout_s: Optional[float] = None,
    journal_path: Optional[Union[str, Path]] = None,
    progress: bool = False,
    profile: bool = False,
    chaos: Optional[ChaosPolicy] = None,
) -> SimulationStudyResult:
    """Run the mission Monte-Carlo for both node types and both criteria.

    ``workers`` / ``timeout_s`` / ``journal_path`` route the replicas
    through the campaign supervisor (:mod:`repro.harness`); with a journal
    an interrupted study resumes where it stopped.  Survival fractions are
    computed over *completed* replicas, so a few lost replicas degrade the
    sample size, not the estimate.  ``progress`` / ``profile`` enable the
    live stderr progress line and hottest-trial cProfile capture
    (:mod:`repro.obs`).  ``chaos`` attacks the shard runners of both
    studies when ``workers >= 1`` (:class:`repro.harness.ChaosPolicy`).
    """
    params = params if params is not None else BbwParameters.paper()
    empirical: Dict[str, float] = {}
    analytical: Dict[str, float] = {}
    completed: Dict[str, int] = {}
    for node_type in ("fs", "nlft"):
        supervisor = CampaignSupervisor(
            _mission_trial,
            SupervisorConfig(
                workers=workers,
                timeout_s=timeout_s,
                journal_path=(
                    f"{journal_path}.{node_type}"
                    if journal_path is not None else None
                ),
                master_seed=seed,
                campaign=f"e8a-mission-{node_type}-n{replicas}",
                progress=(
                    ProgressReporter(f"E8a missions ({node_type})")
                    if progress else None
                ),
                profile=profile,
                chaos=chaos,
            ),
        )
        result = supervisor.run(
            [(node_type, mission_hours, params)] * replicas
        )
        outcomes = [
            MissionOutcome(
                failed_full_at=data["failed_full_at"],
                failed_degraded_at=data["failed_degraded_at"],
            )
            for data in result.ordered_results()
        ]
        done = max(len(outcomes), 1)
        completed[node_type] = len(outcomes)
        empirical[f"{node_type}/full"] = (
            sum(o.survived_full() for o in outcomes) / done
        )
        empirical[f"{node_type}/degraded"] = (
            sum(o.survived_degraded() for o in outcomes) / done
        )
        for mode in ("full", "degraded"):
            model = build_bbw_system(params, node_type, mode)
            analytical[f"{node_type}/{mode}"] = model.reliability(mission_hours)
    return SimulationStudyResult(
        replicas=replicas,
        mission_hours=mission_hours,
        empirical=empirical,
        analytical=analytical,
        completed=completed,
    )


@dataclasses.dataclass
class BrakingComparison:
    """Functional FS-vs-NLFT comparison under an identical fault burst."""

    summaries: Dict[str, Dict[str, object]]

    def render(self) -> str:
        rows = []
        for kind, summary in self.summaries.items():
            rows.append(
                (
                    kind,
                    f"{summary['distance_m']:.1f}",
                    summary["wheels_operational"],
                    summary["masked_total"],
                    summary["fail_silent_total"],
                    summary["degraded_ok"],
                )
            )
        return render_table(
            ["nodes", "stop dist (m)", "wheels ok", "masked", "fail-silent", "degraded ok"],
            rows,
            title="Emergency stop from 30 m/s with transient-fault burst",
        )


def compare_braking_under_faults(
    fault_times_s: Optional[List[float]] = None,
    seed: int = 11,
) -> BrakingComparison:
    """Run the kernel-backed BBW stop with the same faults, FS vs NLFT."""
    if fault_times_s is None:
        fault_times_s = [0.6, 0.9, 1.2, 1.5, 1.9, 2.3]
    summaries: Dict[str, Dict[str, object]] = {}
    for kind in ("fs", "nlft"):
        simulation = BbwSimulation(
            BbwConfig(node_kind=kind, pedal=step_brake(0.3), seed=seed)
        )
        targets = ["wn1", "wn2", "wn3", "wn4", "cu_a", "wn1"]
        for at_s, target in zip(fault_times_s, targets):
            simulation.inject_fault(target, FaultType.TRANSIENT, at_s)
        simulation.run(7.0)
        summaries[kind] = simulation.summary()
    return BrakingComparison(summaries=summaries)


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="simulation_study",
    index="E8a",
    title="Monte-Carlo vs Markov models",
    anchors=("Section 5.2 (model validation)",),
    tags=("campaign",),
)
def _experiment(ctx) -> SimulationStudyResult:
    cfg = ctx.config
    return run_simulation_study(
        replicas=cfg.campaign_size(300, 60),
        mission_hours=cfg.horizon_hours,
        workers=cfg.jobs,
        timeout_s=cfg.timeout_s,
        journal_path=cfg.journal_path("e8a"),
        progress=cfg.progress,
        profile=cfg.profile,
        chaos=cfg.chaos_policy(),
    )
