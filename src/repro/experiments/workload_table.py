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
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from ..cpu.assembler import assemble
from ..cpu.machine import Machine
from ..cpu.programs import PROGRAMS, WorkloadProgram, get_program
from ..faults.campaign import TemInjectionHarness, TemWorkload
from ..faults.generators import random_fault_list
from ..faults.outcomes import CampaignStatistics, ExperimentRecord, OutcomeClass
from ..faults.types import Fault
from ..harness import SupervisorConfig, run_experiment_campaign
from ..kernel.task import MachineExecutable
from ..types import Result
from .asciiplot import render_table

#: Representative inputs per workload (must be fault-free golden runs).
#: Read-only mapping (CTX001-clean).
WORKLOAD_INPUTS: Mapping[str, Result] = MappingProxyType({
    "pid_controller": (500, 430, 25),
    "fir_filter": (120, 140, 160, 150, 130),
    "message_checksum": (410, 77, 995, 3),
})


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
_HARNESS_CACHE: Dict[str, TemInjectionHarness] = {}  # reprolint: disable=CTX001 -- Per-worker-process harness memo: deliberately process-local so a campaign worker builds its golden execution once per process.


def _cached_harness(name: str) -> TemInjectionHarness:
    harness = _HARNESS_CACHE.get(name)
    if harness is None:
        harness = _HARNESS_CACHE[name] = TemInjectionHarness(
            make_workload(get_program(name))
        )
    return harness


def _workload_trial(payload: "tuple[str, Fault]", seed: int) -> ExperimentRecord:
    """One injection into one library workload (supervisor trial function)."""
    name, fault = payload
    return _cached_harness(name).settle_or_run(fault)


def workload_faults(name: str, experiments: int, seed: int) -> List[Fault]:
    """The seeded fault list injected into library workload *name*."""
    return random_fault_list(
        np.random.default_rng(seed),
        experiments,
        max_step=max(_cached_harness(name).golden_steps * 2, 2),
        code_range=(0, assemble(get_program(name).source).size),
        data_range=(0x1800, 0x1910),
    )


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
    journal_path: Optional[Union[str, Path]] = None,
) -> WorkloadTableResult:
    """Run the campaign for every library workload.

    With ``journal_path`` set, one journal per workload is written next to
    the given path (``<path>.<name>``) for interrupt/resume.  The
    per-trial timeout, progress line, profiling and chaos come from the
    active :class:`repro.runtime.RunConfig`.
    """
    stats: Dict[str, CampaignStatistics] = {}
    for index, name in enumerate(sorted(PROGRAMS)):
        faults = workload_faults(name, experiments, seed + index)
        stats[name] = run_experiment_campaign(
            _workload_trial,
            [(name, fault) for fault in faults],
            SupervisorConfig(
                workers=workers,
                journal_path=(
                    f"{journal_path}.{name}" if journal_path is not None else None
                ),
                master_seed=seed + index,
                campaign=f"e12-workload-{name}-n{experiments}",
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
        journal_path=cfg.journal_path("e12"),
    )
