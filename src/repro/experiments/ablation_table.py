"""Experiment E11 (extension) — EDM ablation study.

DESIGN.md calls out the design choice behind light-weight NLFT: a *stack*
of complementary error-detection mechanisms (Table 1) feeding one recovery
mechanism (TEM).  This ablation quantifies each layer's contribution by
rerunning the E5 campaign with one mechanism removed at a time:

* ``full``      — the complete stack (reference);
* ``no_ecc``    — memory bit flips reach the computation uncorrected;
* ``no_mmu``    — no fault confinement: wild accesses only fail when they
  leave physical memory;
* ``no_cfc``    — no control-flow signature checking;
* ``no_tem``    — single execution, hardware/software EDMs only (the
  comparison's coverage contribution).

The interesting outputs are the *undetected wrong output* count (escapes)
and the coverage per variant: the full stack should dominate, and removing
TEM should cost by far the most — the paper's core argument.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..faults.campaign import TemInjectionHarness
from ..faults.generators import random_fault_list
from ..faults.outcomes import CampaignStatistics, ExperimentRecord, OutcomeClass
from ..faults.types import Fault
from ..harness import SupervisorConfig, run_experiment_campaign
from .coverage_table import BRAKE_TASK_SOURCE, make_brake_workload
from ..cpu.assembler import assemble
from .asciiplot import render_table

VARIANTS = ("full", "no_ecc", "no_mmu", "no_cfc", "no_tem")


def _make_harness(variant: str) -> TemInjectionHarness:
    options = {
        "full": {},
        "no_ecc": {"ecc_enabled": False},
        "no_mmu": {"mmu_enabled": False},
        "no_cfc": {"control_flow_checking": False},
        "no_tem": {},
    }[variant]
    return TemInjectionHarness(make_brake_workload(**options))


#: Worker-side harness cache, one per ablation variant (golden run once
#: per process, not once per trial).
_HARNESS_CACHE: Dict[str, TemInjectionHarness] = {}  # reprolint: disable=CTX001 -- Per-worker-process harness memo: deliberately process-local so a campaign worker builds its golden execution once per process.


def _cached_harness(variant: str) -> TemInjectionHarness:
    harness = _HARNESS_CACHE.get(variant)
    if harness is None:
        harness = _HARNESS_CACHE[variant] = _make_harness(variant)
    return harness


def _ablation_trial(payload: "tuple[str, Fault]", seed: int) -> ExperimentRecord:
    """One ablation injection (supervisor trial function)."""
    variant, fault = payload
    harness = _cached_harness(variant)
    if variant == "no_tem":
        return harness.run_single_experiment(fault)
    return harness.settle_or_run(fault)


@dataclasses.dataclass
class AblationResult:
    """Campaign statistics per ablation variant (same fault list)."""

    experiments: int
    stats: Dict[str, CampaignStatistics]

    def escapes(self, variant: str) -> int:
        """Undetected wrong outputs of *variant*."""
        return self.stats[variant].count(OutcomeClass.UNDETECTED_WRONG)

    def masked(self, variant: str) -> int:
        return self.stats[variant].count(OutcomeClass.MASKED)

    @property
    def tem_contribution_dominates(self) -> bool:
        """Removing TEM costs more escapes than removing any single EDM."""
        tem_cost = self.escapes("no_tem") - self.escapes("full")
        other_costs = [
            self.escapes(variant) - self.escapes("full")
            for variant in ("no_ecc", "no_mmu", "no_cfc")
        ]
        return tem_cost >= max(other_costs)

    def render(self) -> str:
        rows = []
        for variant in VARIANTS:
            stats = self.stats[variant]
            rows.append(
                (
                    variant,
                    stats.effective,
                    self.masked(variant),
                    stats.count(OutcomeClass.OMISSION),
                    stats.count(OutcomeClass.FAIL_SILENT),
                    self.escapes(variant),
                    f"{stats.coverage:.4f}" if stats.coverage is not None else "-",
                )
            )
        table = render_table(
            ["variant", "effective", "masked", "omission", "fail-silent",
             "UNDETECTED", "coverage"],
            rows,
            title=f"EDM ablation over {self.experiments} identical fault injections",
        )
        verdict = (
            "TEM's comparison contributes the most coverage (paper's core claim)"
            if self.tem_contribution_dominates
            else "NOTE: another mechanism outweighed TEM in this campaign"
        )
        return table + "\n" + verdict


def ablation_faults(experiments: int, seed: int) -> List[Fault]:
    """The seeded fault list every ablation variant is injected with."""
    return random_fault_list(
        np.random.default_rng(seed),
        experiments,
        max_step=max(_cached_harness("full").golden_steps * 2, 2),
        code_range=(0, assemble(BRAKE_TASK_SOURCE).size),
        data_range=(0x1800, 0x1902),
    )


def compute_ablation_table(
    experiments: int = 1_200,
    seed: int = 424_242,
    workers: int = 0,
    journal_path: Optional[Union[str, Path]] = None,
) -> AblationResult:
    """Run the identical fault list against every ablation variant.

    With ``journal_path`` set, one journal per variant is written next to
    the given path (``<path>.<variant>``) so an interrupted ablation
    resumes per variant.  The per-trial timeout, progress line, profiling
    and chaos come from the active :class:`repro.runtime.RunConfig`.
    """
    faults = ablation_faults(experiments, seed)
    stats: Dict[str, CampaignStatistics] = {}
    for variant in VARIANTS:
        variant_journal = (
            f"{journal_path}.{variant}" if journal_path is not None else None
        )
        stats[variant] = run_experiment_campaign(
            _ablation_trial,
            [(variant, fault) for fault in faults],
            SupervisorConfig(
                workers=workers,
                journal_path=variant_journal,
                master_seed=seed,
                campaign=f"e11-ablation-{variant}-n{experiments}",
            ),
        )
    return AblationResult(experiments=experiments, stats=stats)


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="ablation_table",
    index="E11",
    title="EDM ablation (extension)",
    anchors=("Section 4 (extension: detection-mechanism ablation)",),
    tags=("campaign",),
)
def _experiment(ctx) -> AblationResult:
    cfg = ctx.config
    return compute_ablation_table(
        experiments=cfg.campaign_size(1_200, 300),
        workers=cfg.jobs,
        journal_path=cfg.journal_path("e11"),
    )
