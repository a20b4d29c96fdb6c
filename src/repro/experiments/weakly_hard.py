"""Experiment E14 — weakly-hard (m,k) NLFT vs hard-deadline TEM.

ROADMAP item 3, after Liang et al., *Leveraging Weakly-hard Constraints
for Improving System Fault Tolerance* (arXiv:2008.06192): the paper's TEM
enforces an omission failure on *any* deadline overrun, but the BBW slip
controller it protects is a control loop that provably tolerates bounded
miss patterns.  An (m,k) weakly-hard constraint — at most m deadline
misses in any k consecutive jobs — lets the recovery policy *skip* a
recovery copy and take a controlled miss while the window budget allows,
falling back to full TEM once it is exhausted.

The experiment runs two campaigns over the **identical** seeded fault
stream (the E5 brake workload):

* **hard** — the degenerate (0, 1) constraint, byte-identical to the
  classic TEM path (this degeneracy is frozen against
  ``golden_campaign_e5.json`` by ``tests/faults/test_mk_degeneracy.py``);
* **weakly-hard** — an (m, k) budget with seeded window prefills, so both
  the budget-available and budget-exhausted regimes are sampled.

From the two campaigns it estimates the per-fault miss probabilities of
each regime and feeds them into an absorbing DTMC over the (k-1)-bit
window state: the mean number of jobs until the first (m,k) *violation*
(a miss the window cannot absorb).  For the hard system every miss is a
violation.  Scaled by the control period this yields MTTF and one-year
mission reliability across fault rates — the headroom the weakly-hard
contract buys.  The schedulability side of the same story is reported via
:func:`repro.kernel.analysis.max_tolerable_faults` on the wheel-node
task set, hard and with the (m,k) budget attached.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.tem import MK_BUDGET_MISS
from ..faults.batch_campaign import BatchReply
from ..faults.outcomes import (
    HARNESS_OUTCOMES,
    CampaignStatistics,
    ExperimentRecord,
    OutcomeClass,
)
from ..faults.types import Fault
from ..harness import SupervisorConfig, run_experiment_campaign
from ..kernel.analysis import max_tolerable_faults
from ..kernel.task import MKWindow, TaskSpec, WeaklyHardConstraint
from ..units import us
from .asciiplot import render_table
from .coverage_table import (
    BATCH_CHUNK,
    _cached_harness,
    _tem_batch_replies,
    e5_fault_payloads,
)
from .schedulability_table import wheel_node_task_set

#: One weakly-hard trial: TEM copy cap, (m, k), the window prefill (the
#: miss bits of the k-1 jobs preceding the injected one) and the fault.
MkPayload = Tuple[int, int, int, Tuple[int, ...], Fault]

#: BBW control period (Section 3.4's 5 ms brake loop) in jobs per hour.
JOB_PERIOD_S = 0.005
JOBS_PER_HOUR = int(3600 / JOB_PERIOD_S)

#: Mission length for the reliability column (one year of operation).
MISSION_HOURS = 8760.0

#: Fault arrival rates (faults/hour) swept by default — ISSUE 8 asks for
#: the hard vs (m,k) comparison across at least three rates.
DEFAULT_FAULT_RATES = (0.1, 1.0, 10.0)


def mk_fault_payloads(
    experiments: int,
    seed: int = 2005,
    max_copies: int = 3,
    max_misses: int = 0,
    window_jobs: int = 1,
    prefill_miss_rate: float = 0.0,
    assignments: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[MkPayload]:
    """Deterministic weakly-hard payload list over the E5 fault stream.

    The faults are exactly :func:`~repro.experiments.coverage_table.
    e5_fault_payloads` for the same seed — the hard and weakly-hard
    campaigns (and the golden degeneracy gate) compare like with like.
    Window prefills are drawn from an independent ``seed + 3`` stream; at
    the degenerate (0, 1) the prefix is empty and **zero** random numbers
    are consumed, so the payloads differ from E5's only by the constant
    constraint fields.

    *assignments* models a node whose tasks carry **heterogeneous** (m, k)
    contracts in one campaign: trial *i* takes the ``(m, k)`` pair
    ``assignments[i % len(assignments)]`` (round-robin over the injected
    stream, mirroring how faults land uniformly across a task set), with
    its prefill sized by that trial's own window.  ``assignments=None``
    (or a single pair equal to ``(max_misses, window_jobs)``) reproduces
    the homogeneous campaign bit for bit.
    """
    if assignments is None:
        assignments = ((max_misses, window_jobs),)
    if not assignments:
        raise ValueError("assignments must name at least one (m, k) pair")
    for m, k in assignments:
        WeaklyHardConstraint(max_misses=m, window_jobs=k)
    base = e5_fault_payloads(experiments, seed=seed, max_copies=max_copies)
    prefill_rng = np.random.default_rng(seed + 3)
    payloads: List[MkPayload] = []
    for index, (copy_cap, fault) in enumerate(base):
        m, k = assignments[index % len(assignments)]
        if k > 1 and prefill_miss_rate > 0.0:
            bits = tuple(
                int(b) for b in prefill_rng.random(k - 1) < prefill_miss_rate
            )
        else:
            bits = (0,) * (k - 1)
        payloads.append((copy_cap, m, k, bits, fault))
    return payloads


def _mk_window(payload: MkPayload) -> Optional[MKWindow]:
    """The trial's miss window (``None`` for the hard (0, 1) degeneracy,
    keeping the classic code path literally untouched)."""
    _, max_misses, window_jobs, prefill, _ = payload
    constraint = WeaklyHardConstraint(max_misses=max_misses, window_jobs=window_jobs)
    if constraint.is_hard and constraint.window_jobs == 1:
        return None
    return MKWindow.resume(constraint, prefill)


def _mk_trial(payload: MkPayload, seed: int) -> ExperimentRecord:
    """One weakly-hard injection experiment (supervisor trial function).

    Like :func:`~repro.experiments.coverage_table._e5_trial` the per-trial
    ``seed`` is unused: the fault and the window prefill are both
    pre-generated from the campaign master seed, so the trial is pure and
    safe for any worker, shard or resume schedule.
    """
    del seed
    max_copies = payload[0]
    harness = _cached_harness(max_copies)
    return harness.settle_or_run(payload[4], miss_window=_mk_window(payload))


def _mk_batch_runner(
    payloads: List[MkPayload], seeds: List[int]
) -> "list[BatchReply]":
    """Vectorised weakly-hard chunk executor (supervisor ``batch_runner``).

    :func:`~repro.experiments.coverage_table._tem_batch_replies` with
    every lane paired to its trial's private miss window — the lockstep
    executor consults the same ``accept_miss`` hook the scalar path
    does, so replies stay bit-identical to :func:`_mk_trial`.
    """
    del seeds
    return _tem_batch_replies(
        [(payload[0], payload[4], _mk_window(payload)) for payload in payloads]
    )


def run_mk_campaign(
    experiments: int,
    seed: int = 2005,
    max_copies: int = 3,
    max_misses: int = 0,
    window_jobs: int = 1,
    prefill_miss_rate: float = 0.0,
    campaign: Optional[str] = None,
    workers: int = 0,
    journal_path: Optional[Union[str, Path]] = None,
    batch: int = 0,
    assignments: Optional[Sequence[Tuple[int, int]]] = None,
) -> "tuple[CampaignStatistics, List[MkPayload]]":
    """One (m,k) injection campaign through the full harness stack.

    Every knob matches :func:`~repro.experiments.coverage_table.
    run_coverage_campaign` — serial, ``workers`` shard runners and
    ``batch`` lockstep schedules all produce bit-identical statistics.  Returns
    the statistics *and* the payload list (records are in payload order,
    which is what pairs each outcome with its window prefill for the
    regime estimators).  *assignments* runs heterogeneous per-task (m,k)
    contracts in a single campaign (see :func:`mk_fault_payloads`).
    """
    payloads = mk_fault_payloads(
        experiments,
        seed=seed,
        max_copies=max_copies,
        max_misses=max_misses,
        window_jobs=window_jobs,
        prefill_miss_rate=prefill_miss_rate,
        assignments=assignments,
    )
    name = campaign or f"e14-mk{max_misses}of{window_jobs}-n{experiments}"
    config = SupervisorConfig(
        workers=workers,
        journal_path=journal_path,
        master_seed=seed,
        campaign=name,
        batch_size=batch,
        batch_runner=_mk_batch_runner if batch > 0 else None,
    )
    stats = run_experiment_campaign(_mk_trial, payloads, config)
    return stats, payloads


# ----------------------------------------------------------------------
# Analytic model: mean jobs to the first (m,k) violation
# ----------------------------------------------------------------------

def _is_miss(record: ExperimentRecord) -> bool:
    """A job that delivered nothing (HUNG counts as an omission, exactly
    as in :meth:`CampaignStatistics.p_omission`)."""
    return record.outcome in (OutcomeClass.OMISSION, OutcomeClass.HUNG)


def regime_miss_counts(
    stats: CampaignStatistics,
    payloads: Sequence[MkPayload],
    max_misses: int,
) -> "tuple[int, int, int, int]":
    """Miss/trial counts per window regime.

    Records are in payload order, so each outcome pairs with its trial's
    prefill: a trial whose window still had budget (fewer than m recent
    misses) ran the miss-accepting policy; an exhausted one ran full TEM.
    Returns ``(budget_misses, budget_trials, exhausted_misses,
    exhausted_trials)``.
    """
    budget_n = budget_miss = exhausted_n = exhausted_miss = 0
    for payload, record in zip(payloads, stats.records):
        if record.outcome in HARNESS_OUTCOMES:
            continue
        has_budget = sum(payload[3]) < max_misses
        if has_budget:
            budget_n += 1
            budget_miss += int(_is_miss(record))
        else:
            exhausted_n += 1
            exhausted_miss += int(_is_miss(record))
    return budget_miss, budget_n, exhausted_miss, exhausted_n


def mk_mean_jobs_to_violation(
    constraint: WeaklyHardConstraint,
    p_fault_per_job: float,
    q_budget: float,
    q_exhausted: float,
) -> float:
    """Mean jobs until the first (m,k) violation — absorbing DTMC solve.

    States are the (k-1)-bit miss history of the sliding window; each job
    a fault arrives with probability *p_fault_per_job* and turns into a
    miss with the regime's probability (budget available: the accepting
    policy's ``q_budget``; exhausted: full TEM's ``q_exhausted``).  A miss
    in an exhausted state is a violation (absorbing); a budgeted miss
    shifts into the history.  The hard system is the (0, 1) instance:
    one state, every miss absorbs, mean = 1 / (p_fault * q).
    """
    m, k = constraint.max_misses, constraint.window_jobs
    if p_fault_per_job <= 0.0 or q_exhausted <= 0.0:
        return math.inf
    if m > 0 and q_budget <= 0.0:
        # The window can never accumulate enough misses to exhaust.
        return math.inf
    n = 1 << (k - 1)
    mask = n - 1
    transitions = np.zeros((n, n))
    for state in range(n):
        recent = bin(state).count("1")
        has_budget = recent + 1 <= m
        p_miss = min(
            1.0, p_fault_per_job * (q_budget if has_budget else q_exhausted)
        )
        transitions[state, (state << 1) & mask] += 1.0 - p_miss
        if has_budget:
            transitions[state, ((state << 1) | 1) & mask] += p_miss
        # An unbudgeted miss absorbs (violation): probability mass leaves
        # the transient chain.
    expected = np.linalg.solve(np.eye(n) - transitions, np.ones(n))
    return float(expected[0])


# ----------------------------------------------------------------------
# The experiment: hard vs (m,k) across fault rates
# ----------------------------------------------------------------------

@dataclasses.dataclass
class WeaklyHardRate:
    """Hard vs weakly-hard dependability at one fault arrival rate."""

    faults_per_hour: float
    hard_mttf_hours: float
    mk_mttf_hours: float
    hard_reliability: float
    mk_reliability: float

    @property
    def mttf_gain(self) -> float:
        if not math.isfinite(self.hard_mttf_hours) or self.hard_mttf_hours <= 0:
            return float("nan")
        return self.mk_mttf_hours / self.hard_mttf_hours


@dataclasses.dataclass
class WeaklyHardResult:
    """Both campaigns plus the derived hard vs (m,k) comparison."""

    max_misses: int
    window_jobs: int
    hard_stats: CampaignStatistics
    mk_stats: CampaignStatistics
    q_hard: float
    q_budget: float
    q_exhausted: float
    budget_trials: int
    exhausted_trials: int
    accepted_misses: int
    window_violations: int
    rates: List[WeaklyHardRate]
    hard_headroom: int
    mk_headroom: int

    def render(self) -> str:
        label = f"({self.max_misses},{self.window_jobs})"
        regime_table = render_table(
            ["per-fault miss probability", "estimate", "trials"],
            [
                ("hard TEM (0,1)", self.q_hard, self.hard_stats.valid),
                (f"{label} budget available", self.q_budget, self.budget_trials),
                (f"{label} budget exhausted", self.q_exhausted, self.exhausted_trials),
            ],
            title=(
                f"Weakly-hard {label} NLFT vs hard-deadline TEM "
                f"({self.mk_stats.valid} injected faults per campaign; "
                f"{self.accepted_misses} recoveries absorbed as budgeted "
                f"misses, {self.window_violations} window violations)"
            ),
        )
        rate_rows = [
            (
                row.faults_per_hour,
                _hours(row.hard_mttf_hours),
                _hours(row.mk_mttf_hours),
                _gain(row.mttf_gain),
                row.hard_reliability,
                row.mk_reliability,
            )
            for row in self.rates
        ]
        rate_table = render_table(
            [
                "faults/h",
                "hard MTTF",
                f"{label} MTTF",
                "gain",
                "hard R(1y)",
                f"{label} R(1y)",
            ],
            rate_rows,
            title=(
                "Mean time to first deadline-contract violation "
                f"(5 ms control period, {JOBS_PER_HOUR} jobs/h) and "
                "one-year mission reliability"
            ),
        )
        headroom_table = render_table(
            ["schedulability test", "tolerable faults per busy period"],
            [
                ("hard-deadline FT-RTA", self.hard_headroom),
                (f"{label}-aware FT-RTA", self.mk_headroom),
            ],
            title="Fault-tolerance headroom on the wheel-node task set",
        )
        return "\n\n".join([regime_table, rate_table, headroom_table])


def _hours(value: float) -> str:
    if not math.isfinite(value):
        return "inf"
    if value >= 1e7:
        return f"{value:.3e} h"
    return f"{value:.1f} h"


def _gain(value: float) -> str:
    if not math.isfinite(value):
        return "inf"
    return f"{value:.1f}x"


def run_weakly_hard_experiment(
    experiments: int = 1_000,
    seed: int = 2005,
    max_copies: int = 3,
    max_misses: int = 1,
    window_jobs: int = 4,
    prefill_miss_rate: float = 0.35,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    comparison_cost: int = us(20),
    workers: int = 0,
    journal_hard: Optional[Union[str, Path]] = None,
    journal_mk: Optional[Union[str, Path]] = None,
) -> WeaklyHardResult:
    """Run the hard and (m,k) campaigns and derive the comparison.

    Both campaigns inject the identical seeded fault stream; only the
    recovery policy differs.  ``prefill_miss_rate`` seeds the weakly-hard
    campaign's window prefills so both regimes (budget available /
    exhausted) are sampled; the hard campaign's estimator backs up any
    regime the prefills left empty.  Both campaigns run in
    :data:`~repro.experiments.coverage_table.BATCH_CHUNK`-trial lockstep
    chunks (trial at a time under ``profile``).
    """
    common = dict(
        seed=seed,
        max_copies=max_copies,
        workers=workers,
        batch=BATCH_CHUNK,
    )
    hard_stats, _hard_payloads = run_mk_campaign(
        experiments,
        campaign=f"e14-hard-n{experiments}",
        journal_path=journal_hard,
        **common,
    )
    mk_stats, mk_payloads = run_mk_campaign(
        experiments,
        max_misses=max_misses,
        window_jobs=window_jobs,
        prefill_miss_rate=prefill_miss_rate,
        campaign=f"e14-mk{max_misses}of{window_jobs}-n{experiments}",
        journal_path=journal_mk,
        **common,
    )

    hard_valid = [r for r in hard_stats.records if r.outcome not in HARNESS_OUTCOMES]
    hard_misses = sum(1 for r in hard_valid if _is_miss(r))
    q_hard = hard_misses / len(hard_valid) if hard_valid else 0.0
    budget_miss, budget_n, exhausted_miss, exhausted_n = regime_miss_counts(
        mk_stats, mk_payloads, max_misses
    )
    # An exhausted window runs literally the hard path (the accept_miss
    # hook refuses, full TEM recovers), so the hard campaign's trials are
    # draws from the same Bernoulli process — pool them for the exhausted
    # estimator instead of letting a small regime sample collapse to 0.
    pooled_n = exhausted_n + len(hard_valid)
    q_exhausted = (exhausted_miss + hard_misses) / pooled_n if pooled_n else 0.0
    # The budget regime has no hard-campaign counterpart; with no budgeted
    # trials sampled, fall back to the hard estimate as a stand-in.
    q_budget = budget_miss / budget_n if budget_n else q_hard

    accepted = sum(
        1
        for record in mk_stats.records
        if MK_BUDGET_MISS in record.detection_mechanisms
    )
    violations = sum(
        1
        for payload, record in zip(mk_payloads, mk_stats.records)
        if record.outcome not in HARNESS_OUTCOMES
        and _is_miss(record)
        and sum(payload[3]) >= max_misses
    )

    constraint = WeaklyHardConstraint(max_misses=max_misses, window_jobs=window_jobs)
    hard_constraint = WeaklyHardConstraint(max_misses=0, window_jobs=1)
    rates: List[WeaklyHardRate] = []
    for rate in fault_rates:
        p_fault = min(1.0, rate / JOBS_PER_HOUR)
        hard_jobs = mk_mean_jobs_to_violation(hard_constraint, p_fault, q_hard, q_hard)
        mk_jobs = mk_mean_jobs_to_violation(constraint, p_fault, q_budget, q_exhausted)
        hard_mttf = hard_jobs / JOBS_PER_HOUR
        mk_mttf = mk_jobs / JOBS_PER_HOUR
        rates.append(
            WeaklyHardRate(
                faults_per_hour=rate,
                hard_mttf_hours=hard_mttf,
                mk_mttf_hours=mk_mttf,
                hard_reliability=mission_reliability(hard_mttf),
                mk_reliability=mission_reliability(mk_mttf),
            )
        )

    tasks = wheel_node_task_set()
    soft_tasks: List[TaskSpec] = [
        dataclasses.replace(t, weakly_hard=constraint) if t.is_critical else t
        for t in tasks
    ]
    return WeaklyHardResult(
        max_misses=max_misses,
        window_jobs=window_jobs,
        hard_stats=hard_stats,
        mk_stats=mk_stats,
        q_hard=q_hard,
        q_budget=q_budget,
        q_exhausted=q_exhausted,
        budget_trials=budget_n,
        exhausted_trials=exhausted_n,
        accepted_misses=accepted,
        window_violations=violations,
        rates=rates,
        hard_headroom=max_tolerable_faults(tasks, comparison_cost=comparison_cost),
        mk_headroom=max_tolerable_faults(soft_tasks, comparison_cost=comparison_cost),
    )


def mission_reliability(mttf_hours: float) -> float:
    """P(no failure event over one :data:`MISSION_HOURS` year) of a node
    whose failure events (E14: contract violations, E15: omissions) have
    mean time *mttf_hours*, exponential approximation."""
    if not math.isfinite(mttf_hours):
        return 1.0
    if mttf_hours <= 0:
        return 0.0
    return math.exp(-MISSION_HOURS / mttf_hours)


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="weakly_hard",
    index="E14",
    title="Weakly-hard (m,k) NLFT vs hard-deadline TEM",
    anchors=("ROADMAP item 3", "Liang et al., arXiv:2008.06192"),
    tags=("campaign",),
)
def _experiment(ctx) -> WeaklyHardResult:
    cfg = ctx.config
    return run_weakly_hard_experiment(
        experiments=cfg.campaign_size(1_000, 150),
        workers=cfg.jobs,
        journal_hard=cfg.journal_path("e14-hard"),
        journal_mk=cfg.journal_path("e14-mk"),
    )
