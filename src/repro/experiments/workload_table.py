"""Experiment E12 (extension) — coverage parameters across workloads.

Fault-injection coverage figures are workload-dependent (a known result of
the studies behind the paper).  This experiment reruns the E5 campaign for
every program in the workload library (PI controller, FIR filter, message
checksum) and reports C_D / P_T / P_OM per workload, demonstrating that
the *taxonomy* — most detected errors masked, small omission share, high
coverage — is robust across instruction mixes.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..cpu.assembler import assemble
from ..cpu.machine import Machine
from ..cpu.programs import PROGRAMS, WorkloadProgram, get_program
from ..faults.campaign import TemInjectionHarness, TemWorkload
from ..faults.generators import random_fault_list
from ..faults.outcomes import CampaignStatistics, ExperimentRecord, OutcomeClass
from ..faults.types import Fault
from ..harness import ChaosPolicy, SupervisorConfig, run_experiment_campaign
from ..kernel.task import MachineExecutable
from ..obs.progress import ProgressReporter
from ..types import Result
from .asciiplot import render_table

#: Representative inputs per workload (must be fault-free golden runs).
WORKLOAD_INPUTS: Dict[str, Result] = {
    "pid_controller": (500, 430, 25),
    "fir_filter": (120, 140, 160, 150, 130),
    "message_checksum": (410, 77, 995, 3),
}


def make_workload(program: WorkloadProgram, max_copies: int = 3) -> TemWorkload:
    """Build a TEM workload for one library program."""
    assembled = assemble(program.source)

    def factory() -> MachineExecutable:
        return MachineExecutable(
            Machine(),
            assembled,
            input_count=program.input_count,
            output_count=program.output_count,
        )

    return TemWorkload(
        executable_factory=factory,
        inputs=WORKLOAD_INPUTS[program.name],
        signature_checkpoints=program.checkpoints,
        max_copies=max_copies,
    )


#: Worker-side harness cache, one per library program.
_HARNESS_CACHE: Dict[str, TemInjectionHarness] = {}


def _workload_trial(payload: "tuple[str, Fault]", seed: int) -> ExperimentRecord:
    """One injection into one library workload (supervisor trial function)."""
    name, fault = payload
    harness = _HARNESS_CACHE.get(name)
    if harness is None:
        harness = _HARNESS_CACHE[name] = TemInjectionHarness(
            make_workload(get_program(name))
        )
    return harness.run_experiment(fault)


@dataclasses.dataclass
class WorkloadTableResult:
    """Per-workload campaign statistics."""

    experiments_per_workload: int
    stats: Dict[str, CampaignStatistics]

    def render(self) -> str:
        rows: List[tuple] = []
        for name, stats in sorted(self.stats.items()):
            rows.append(
                (
                    name,
                    stats.effective,
                    f"{stats.coverage:.4f}" if stats.coverage is not None else "-",
                    f"{stats.p_tem:.3f}" if stats.p_tem is not None else "-",
                    f"{stats.p_omission:.3f}" if stats.p_omission is not None else "-",
                    stats.count(OutcomeClass.UNDETECTED_WRONG),
                )
            )
        return render_table(
            ["workload", "effective", "C_D", "P_T", "P_OM", "undetected"],
            rows,
            title=(
                f"Coverage parameters per workload "
                f"({self.experiments_per_workload} injections each)"
            ),
        )

    @property
    def taxonomy_is_robust(self) -> bool:
        """Masking dominates and coverage stays high for every workload."""
        for stats in self.stats.values():
            if stats.coverage is None or stats.coverage < 0.9:
                return False
            if stats.p_tem is None or stats.p_tem < 0.5:
                return False
        return True


def compute_workload_table(
    experiments: int = 800,
    seed: int = 1999,
    workers: int = 0,
    timeout_s: Optional[float] = None,
    journal_path: Optional[Union[str, Path]] = None,
    progress: bool = False,
    profile: bool = False,
    chaos: Optional[ChaosPolicy] = None,
) -> WorkloadTableResult:
    """Run the campaign for every library workload.

    With ``journal_path`` set, one journal per workload is written next to
    the given path (``<path>.<name>``) for interrupt/resume.  ``progress``
    / ``profile`` enable the live stderr progress line and hottest-trial
    profiling (:mod:`repro.obs`).  ``chaos`` attacks the shard runners of
    every workload's campaign when ``workers >= 1``
    (:class:`repro.harness.ChaosPolicy`).
    """
    stats: Dict[str, CampaignStatistics] = {}
    for index, (name, program) in enumerate(sorted(PROGRAMS.items())):
        harness = TemInjectionHarness(make_workload(program))
        assembled_size = assemble(program.source).size
        rng = np.random.default_rng(seed + index)
        faults = random_fault_list(
            rng,
            experiments,
            max_step=max(harness.golden_steps * 2, 2),
            code_range=(0, assembled_size),
            data_range=(0x1800, 0x1910),
        )
        stats[name] = run_experiment_campaign(
            _workload_trial,
            [(name, fault) for fault in faults],
            SupervisorConfig(
                workers=workers,
                timeout_s=timeout_s,
                journal_path=(
                    f"{journal_path}.{name}" if journal_path is not None else None
                ),
                master_seed=seed + index,
                campaign=f"e12-workload-{name}-n{experiments}",
                progress=(
                    ProgressReporter(f"E12 workload ({name})")
                    if progress else None
                ),
                profile=profile,
                chaos=chaos,
            ),
        )
    return WorkloadTableResult(experiments_per_workload=experiments, stats=stats)


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="workload_table",
    index="E12",
    title="Coverage across workloads (extension)",
    anchors=("Section 4 (extension: workload sensitivity of coverage)",),
    tags=("campaign",),
)
def _experiment(ctx) -> WorkloadTableResult:
    cfg = ctx.config
    return compute_workload_table(
        experiments=cfg.campaign_size(800, 200),
        workers=cfg.jobs,
        timeout_s=cfg.timeout_s,
        journal_path=cfg.journal_path("e12"),
        progress=cfg.progress,
        profile=cfg.profile,
        chaos=cfg.chaos_policy(),
    )
