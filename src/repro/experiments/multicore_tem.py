"""Experiment E15 — temporal vs spatial NLFT on multicore nodes.

ROADMAP item 4: the paper's node is a single processor, so TEM buys its
fault tolerance with *time* — two copies back to back plus reserved
recovery slack.  An M-core node can buy it with *space* instead: run the
two copies concurrently on different cores, compare at the joint
completion, and launch the recovery copy on a third core (the EFTOS
voting-farm arrangement, arXiv:1401.2920).  Shared resources couple the
cores: a fault striking a copy *inside* a critical section either
stretches every other core's blocking time (classical lock, MSRP-style)
or merely wastes the failed attempt (LEFT-RS-style lock-free retries,
arXiv:2512.21701).

The experiment measures both sides of the trade on the DES kernel:

* **Injection sweep** — for each (TEM mode, resource protocol) a campaign
  of single-fault trials on a 3-core node running a shared-state control
  workload; a configured fraction of strikes is aimed *inside* the
  control task's critical section
  (:func:`repro.faults.generators.critical_section_arrivals`), the rest
  land uniformly.  Outcomes (delivered / masked / omission / undetected)
  give the per-fault miss probability of each configuration, which the
  E14 renewal argument turns into MTTF and one-year mission reliability
  across fault arrival rates.
* **Schedulable utilisation** — the largest raw utilisation a synthetic
  task family keeps schedulable under the multicore FT-RTA
  (:func:`repro.kernel.analysis.analyse`) across core counts:
  temporal TEM doubles demand on one core; spatial TEM places single
  copies on two cores (the analysis transform of
  :func:`spatial_analysis_tasks`), trading cores for slack.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..cpu.profiles import FaultEffect
from ..faults.generators import critical_section_arrivals
from ..kernel.cores import PlacementPolicy
from ..kernel.analysis import FaultHypothesis, analyse
from ..kernel.resources import CriticalSection, ResourceProtocol
from ..kernel.scheduler import KernelConfig, Scheduler
from ..kernel.task import CallableExecutable, Criticality, TaskSpec, TemMode
from ..sim import PRIORITY_DEFAULT, Simulator, TraceRecorder
from .asciiplot import render_table
from .weakly_hard import mission_reliability

#: Control period of the injected workload (ticks = microseconds): 10 ms.
PERIOD_TICKS = 10_000
JOBS_PER_HOUR = int(3_600 / (PERIOD_TICKS * 1e-6))

#: Fault arrival rates (faults/hour) swept in the dependability table.
DEFAULT_FAULT_RATES = (0.1, 1.0, 10.0)

#: Fraction of injected faults aimed inside the control task's critical
#: section (the remainder lands uniformly over the period).
CS_TARGET_FRACTION = 0.5

#: Cores of the injected node: enough for spatial TEM's two concurrent
#: copies plus a recovery/background core.
NODE_CORES = 3

#: Manifested-effect mix for the injected strikes (register/memory flips
#: abstracted to the kernel-visible effect classes, cf. repro.cpu.profiles).
EFFECT_TABLE: "Tuple[Tuple[FaultEffect, float], ...]" = (
    (FaultEffect.HARDWARE_EXCEPTION, 0.45),
    (FaultEffect.WRONG_RESULT, 0.25),
    (FaultEffect.TIMING_OVERRUN, 0.15),
    (FaultEffect.UNDETECTED_WRONG_OUTPUT, 0.05),
    (FaultEffect.NO_EFFECT, 0.10),
)


def workload_tasks(tem_mode: TemMode) -> List[TaskSpec]:
    """The injected node's task set: two critical tasks sharing ``state``
    through critical sections, plus a non-critical logger."""
    return [
        # Deadlines are deliberately tight: a temporal recovery copy (third
        # sequential execution) does NOT always fit before the deadline,
        # while spatial copies run concurrently and usually leave room for
        # a recovery on the spare core — the dependability gap E15 measures.
        TaskSpec(
            name="ctrl", period=PERIOD_TICKS, wcet=2_000, priority=0, core=0,
            deadline=5_200, tem_mode=tem_mode,
            critical_sections=(CriticalSection("state", 500, 400),),
        ),
        TaskSpec(
            name="mon", period=PERIOD_TICKS, wcet=1_500, priority=1, core=1,
            deadline=5_000, tem_mode=tem_mode,
            critical_sections=(CriticalSection("state", 200, 300),),
        ),
        TaskSpec(
            name="log", period=PERIOD_TICKS, wcet=1_000, priority=2, core=2,
            criticality=Criticality.NON_CRITICAL,
        ),
    ]


@functools.lru_cache(maxsize=None)
def _trial_tasks(tem_mode: TemMode) -> Tuple[TaskSpec, ...]:
    """:func:`workload_tasks`, built once per mode (task specs are frozen)."""
    return tuple(workload_tasks(tem_mode))


@dataclasses.dataclass
class MulticoreTrial:
    """One pre-generated single-fault injection."""

    tick: int
    core: int
    effect: FaultEffect
    targets_cs: bool


def multicore_trials(
    count: int,
    seed: int,
    cs_fraction: float = CS_TARGET_FRACTION,
) -> List[MulticoreTrial]:
    """Deterministic trial list: *cs_fraction* of the strikes aimed inside
    the control task's critical section (on its core), the rest uniform
    over the first period and the node's cores."""
    rng = np.random.default_rng(seed)
    ctrl = workload_tasks(TemMode.TEMPORAL)[0]
    targeted = int(round(count * cs_fraction))
    cs_ticks = critical_section_arrivals(rng, ctrl, targeted, PERIOD_TICKS)
    effects = [e for e, _ in EFFECT_TABLE]
    weights = np.array([w for _, w in EFFECT_TABLE])
    weights /= weights.sum()
    trials: List[MulticoreTrial] = []
    for tick in cs_ticks:
        effect = effects[int(rng.choice(len(effects), p=weights))]
        trials.append(MulticoreTrial(tick, ctrl.core or 0, effect, True))
    for _ in range(count - targeted):
        tick = int(rng.integers(0, PERIOD_TICKS))
        core = int(rng.integers(0, NODE_CORES))
        effect = effects[int(rng.choice(len(effects), p=weights))]
        trials.append(MulticoreTrial(tick, core, effect, False))
    return trials


def run_multicore_trial(
    trial: MulticoreTrial,
    tem_mode: TemMode,
    protocol: ResourceProtocol,
    seed: int,
) -> "Tuple[str, Scheduler]":
    """One single-fault DES trial; returns the outcome class and the
    scheduler (for resource/contention accounting)."""
    sim = Simulator()
    scheduler = Scheduler(
        sim,
        name="mc",
        trace=TraceRecorder(enabled=False),
        rng=seed,
        config=KernelConfig(
            cores=NODE_CORES,
            resource_protocol=protocol,
            budget_factor=2.0,
            comparison_cost=20,
            cs_fault_cleanup_cost=500,
        ),
    )
    for spec in _trial_tasks(tem_mode):
        value = {"ctrl": (17,), "mon": (29,), "log": (1,)}[spec.name]
        scheduler.add_task(spec, CallableExecutable(lambda i, v=value: v, spec.wcet))
    scheduler.start()
    sim.schedule_at(
        trial.tick, scheduler.apply_fault_effect, trial.effect, trial.core,
        priority=PRIORITY_DEFAULT,
    )
    sim.run(until=2 * PERIOD_TICKS + PERIOD_TICKS // 2)
    stats = scheduler.stats
    if stats.undetected_wrong_outputs > 0:
        return "undetected", scheduler
    if stats.omissions > 0:
        return "omission", scheduler
    if stats.delivered_masked > 0:
        return "masked", scheduler
    return "ok", scheduler


@dataclasses.dataclass
class MulticoreConfigResult:
    """Injection-sweep outcome of one (TEM mode, protocol) configuration."""

    tem_mode: str
    protocol: str
    trials: int
    cs_targeted: int
    ok: int
    masked: int
    omissions: int
    undetected: int
    cs_faults: int
    blocking_ticks: int
    retry_ticks: int
    cleanup_ticks: int

    @property
    def q_miss(self) -> float:
        """Per-fault probability of a deadline-contract miss (omission)."""
        return self.omissions / self.trials if self.trials else 0.0

    @property
    def label(self) -> str:
        return f"{self.tem_mode}/{self.protocol}"


@dataclasses.dataclass
class MulticoreRate:
    """Dependability of one configuration at one fault arrival rate."""

    label: str
    faults_per_hour: float
    mttf_hours: float
    reliability: float


@dataclasses.dataclass
class UtilisationRow:
    """Largest schedulable raw utilisation for one analysis configuration."""

    cores: int
    placement: str
    tem_mode: str
    utilisation: float


@dataclasses.dataclass
class MulticoreTemResult:
    """E15: injection sweep + dependability + schedulable utilisation."""

    trials: int
    configs: List[MulticoreConfigResult]
    rates: List[MulticoreRate]
    utilisation: List[UtilisationRow]

    def render(self) -> str:
        sweep = render_table(
            [
                "TEM mode/protocol", "trials", "cs-aimed", "ok", "masked",
                "omission", "undetected", "cs faults", "block", "retry",
            ],
            [
                (
                    c.label, c.trials, c.cs_targeted, c.ok, c.masked,
                    c.omissions, c.undetected, c.cs_faults,
                    c.blocking_ticks, c.retry_ticks,
                )
                for c in self.configs
            ],
            title=(
                f"Single-fault injection sweep on a {NODE_CORES}-core node "
                f"({self.trials} trials per configuration; 'block'/'retry' "
                "are total contention ticks)"
            ),
        )
        rate_rows = [
            (r.label, r.faults_per_hour, _hours(r.mttf_hours), r.reliability)
            for r in self.rates
        ]
        rate_table = render_table(
            ["configuration", "faults/h", "MTTF", "R(1y)"],
            rate_rows,
            title=(
                "Mean time to first omission and one-year mission "
                f"reliability ({PERIOD_TICKS / 1000:.0f} ms control period, "
                f"{JOBS_PER_HOUR} jobs/h)"
            ),
        )
        util_rows = [
            (u.cores, u.placement, u.tem_mode, f"{u.utilisation:.3f}")
            for u in self.utilisation
        ]
        util_table = render_table(
            ["cores", "placement", "TEM mode", "max schedulable U"],
            util_rows,
            title=(
                "Largest raw utilisation the multicore FT-RTA keeps "
                "schedulable (F=1 recovery per busy period)"
            ),
        )
        return "\n\n".join([sweep, rate_table, util_table])


def _hours(value: float) -> str:
    if not math.isfinite(value):
        return "inf"
    if value >= 1e7:
        return f"{value:.3e} h"
    return f"{value:.1f} h"


# ----------------------------------------------------------------------
# Schedulable-utilisation analysis
# ----------------------------------------------------------------------

_FAMILY_PERIODS = (10_000, 20_000, 40_000, 80_000)


def _task_family(utilisation: float) -> List[TaskSpec]:
    """Synthetic critical task family with the given total raw utilisation
    spread evenly (implicit deadlines, distinct rate-monotonic priorities)."""
    share = utilisation / len(_FAMILY_PERIODS)
    return [
        TaskSpec(
            name=f"u{i}",
            period=period,
            wcet=max(1, int(share * period)),
            priority=i,
        )
        for i, period in enumerate(_FAMILY_PERIODS)
    ]


def spatial_analysis_tasks(tasks: Sequence[TaskSpec], cores: int) -> List[TaskSpec]:
    """Analysis transform for spatial TEM: each critical task becomes two
    single-execution copies pinned to neighbouring cores.

    The copies are marked non-critical so the analysis charges them one
    execution each (no temporal doubling) — that is the point of spatial
    redundancy.  The recovery copy runs *in parallel* on yet another core,
    so it adds no serial recovery term to the analysed partitions; the
    slack it needs is a whole spare core, which the transform's placement
    leaves visible in the per-core utilisation.
    """
    out: List[TaskSpec] = []
    for i, task in enumerate(tasks):
        if not task.is_critical:
            out.append(task)
            continue
        base = task.core if task.core is not None else i
        for copy in range(2):
            out.append(
                TaskSpec(
                    name=f"{task.name}.{'ab'[copy]}",
                    period=task.period,
                    wcet=task.wcet,
                    priority=2 * task.priority + copy,
                    criticality=Criticality.NON_CRITICAL,
                    deadline=task.deadline,
                    core=(base + copy) % cores,
                )
            )
    return out


def max_schedulable_utilisation(
    cores: int,
    placement: PlacementPolicy,
    tem_mode: TemMode,
    comparison_cost: int = 20,
    hypothesis: FaultHypothesis = FaultHypothesis(max_faults=1),
    steps: int = 24,
) -> float:
    """Binary-search the largest raw utilisation of the synthetic family
    that :func:`~repro.kernel.analysis.analyse` keeps schedulable on *cores* cores."""

    def schedulable(utilisation: float) -> bool:
        tasks = _task_family(utilisation)
        if tem_mode is TemMode.SPATIAL:
            if cores < 2:
                return False
            tasks = spatial_analysis_tasks(tasks, cores)
        result = analyse(
            tasks, hypothesis, cores=cores, placement=placement,
            comparison_cost=comparison_cost,
        )
        return result.schedulable

    lo, hi = 0.0, float(cores)
    if not schedulable(0.01):
        return 0.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if schedulable(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------

def run_multicore_experiment(
    trials: int = 400,
    seed: int = 2006,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    core_counts: Sequence[int] = (1, 2, 4),
) -> MulticoreTemResult:
    """Run the E15 sweep: both TEM modes x both resource protocols over
    one deterministic trial list, plus the utilisation analysis."""
    trial_list = multicore_trials(trials, seed)
    configs: List[MulticoreConfigResult] = []
    for tem_mode in (TemMode.TEMPORAL, TemMode.SPATIAL):
        for protocol in (ResourceProtocol.LOCK, ResourceProtocol.LOCK_FREE):
            counts: Dict[str, int] = {
                "ok": 0, "masked": 0, "omission": 0, "undetected": 0,
            }
            cs_faults = blocking = retry = cleanup = 0
            for index, trial in enumerate(trial_list):
                outcome, scheduler = run_multicore_trial(
                    trial, tem_mode, protocol, seed=seed + index
                )
                counts[outcome] += 1
                res = scheduler.resources.stats
                cs_faults += res.cs_faults
                blocking += res.blocking_ticks
                retry += res.retry_ticks
                cleanup += res.cleanup_ticks
            configs.append(
                MulticoreConfigResult(
                    tem_mode=tem_mode.value,
                    protocol=protocol.value,
                    trials=len(trial_list),
                    cs_targeted=sum(1 for t in trial_list if t.targets_cs),
                    ok=counts["ok"],
                    masked=counts["masked"],
                    omissions=counts["omission"],
                    undetected=counts["undetected"],
                    cs_faults=cs_faults,
                    blocking_ticks=blocking,
                    retry_ticks=retry,
                    cleanup_ticks=cleanup,
                )
            )

    rates: List[MulticoreRate] = []
    for config in configs:
        for rate in fault_rates:
            p_fault = min(1.0, rate / JOBS_PER_HOUR)
            p_miss = p_fault * config.q_miss
            jobs = math.inf if p_miss <= 0.0 else 1.0 / p_miss
            mttf = jobs / JOBS_PER_HOUR
            rates.append(
                MulticoreRate(
                    label=config.label,
                    faults_per_hour=rate,
                    mttf_hours=mttf,
                    reliability=mission_reliability(mttf),
                )
            )

    utilisation: List[UtilisationRow] = []
    for cores in core_counts:
        for placement in (PlacementPolicy.PARTITIONED, PlacementPolicy.GLOBAL):
            utilisation.append(
                UtilisationRow(
                    cores=cores,
                    placement=placement.value,
                    tem_mode=TemMode.TEMPORAL.value,
                    utilisation=max_schedulable_utilisation(
                        cores, placement, TemMode.TEMPORAL
                    ),
                )
            )
        if cores >= 2:
            # Spatial copies are placed by partitioning; a global spatial
            # analysis would need per-copy affinity constraints global FP
            # does not express.
            utilisation.append(
                UtilisationRow(
                    cores=cores,
                    placement=PlacementPolicy.PARTITIONED.value,
                    tem_mode=TemMode.SPATIAL.value,
                    utilisation=max_schedulable_utilisation(
                        cores, PlacementPolicy.PARTITIONED, TemMode.SPATIAL
                    ),
                )
            )
    return MulticoreTemResult(
        trials=len(trial_list), configs=configs, rates=rates,
        utilisation=utilisation,
    )


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="multicore",
    index="E15",
    title="Temporal vs spatial NLFT on multicore nodes",
    anchors=("ROADMAP item 4", "arXiv:1401.2920", "arXiv:2512.21701"),
    tags=("campaign",),
)
def _experiment(ctx) -> MulticoreTemResult:
    cfg = ctx.config
    return run_multicore_experiment(trials=cfg.campaign_size(400, 60))
