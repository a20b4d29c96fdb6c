"""The five ledger workloads, driven through the program's public API.

Each workload turns ``(seed, rep)`` into one rep of work.  A rep is split
into an untimed :meth:`Workload.prepare` (input generation), the timed
:meth:`Workload.run` (public entry-point calls only) and an untimed
:meth:`Workload.summarise` (output digest, failures and exact simulated
counts).  :meth:`Workload.check` re-derives a seeded sample of outputs
through an independent path after the timed loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import runtime
from repro.experiments import (
    coverage_table,
    figure12,
    figure13,
    figure14,
    mttf_table,
    multicore_tem,
)
from repro.harness.seeds import derive_seed
from repro.kernel.resources import ResourceProtocol
from repro.kernel.task import TemMode
from repro.models import BbwParameters, build_bbw_system

#: Absolute tolerance between the sweep grid and a point solve.
GRID_TOLERANCE = 1e-9

#: Seed offset of the warm-up call, far from any rep id.
WARM_UP_REP = 1 << 20


@dataclasses.dataclass
class RepSummary:
    """What one rep produced, reduced to what the ledger compares."""

    ops: int
    digest: str
    #: Operations the program itself reported failed.
    failures: int
    #: Exact simulated counts; a change that only speeds code up keeps them.
    counts: Dict[str, int]
    #: Per-call latencies when a rep makes many calls (seconds).
    latencies_s: Optional[List[float]] = None


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


class Workload:
    """One workload; subclasses fill in the four rep phases."""

    name = ""
    #: Campaign worker processes besides the measuring process.
    workers = 0
    #: Cores the workload keeps busy; the host probe times as many.
    cores = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def rep_seed(self, rep: int) -> int:
        return derive_seed(self.seed, rep)

    def warm_up(self) -> None:
        """One tiny call of the timed path (fills caches, lazy set-up)."""
        raise NotImplementedError

    def prepare(self, rep: int) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any) -> Any:
        raise NotImplementedError

    def summarise(self, rep: int, inputs: Any, output: Any) -> RepSummary:
        raise NotImplementedError

    def finish(self, inputs: Any) -> None:
        """Release what :meth:`prepare` created (untimed)."""

    def check(self, reps: List[int]) -> Tuple[int, Dict[str, Any]]:
        """Failed operations found by re-deriving outputs, and a report."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# E5 coverage campaigns
# ----------------------------------------------------------------------

class E5Campaign(Workload):
    """``run_coverage_campaign(experiments=2000, seed=derive(S, rep))``."""

    def __init__(self, seed: int, quick: bool, scratch: Path,
                 workers: int = 0, batch: int = 0) -> None:
        super().__init__(seed, scratch)
        self.workers = workers
        self.cores = max(1, workers)
        self.batch = min(batch, 16) if quick else batch
        self.trials = 64 if quick else 2000
        self.journal = batch > 0
        self._calls = 0
        #: Rep 0's records as JSON, the reference for the scalar re-run.
        self.rep0: Optional[str] = None

    def _campaign(self, experiments: int, seed: int, journal: Optional[Path]):
        return coverage_table.run_coverage_campaign(
            experiments=experiments, seed=seed, workers=self.workers,
            batch=self.batch, journal_path=journal,
        )

    def warm_up(self) -> None:
        journal = self._journal_path()
        try:
            self._campaign(16, self.rep_seed(WARM_UP_REP), journal)
        finally:
            self.finish((None, journal))

    def _journal_path(self) -> Optional[Path]:
        if not self.journal:
            return None
        self._calls += 1
        return self.scratch / f"e5-{self._calls}.jsonl"

    def prepare(self, rep: int) -> Tuple[int, Optional[Path]]:
        return self.rep_seed(rep), self._journal_path()

    def run(self, inputs: Tuple[int, Optional[Path]]):
        seed, journal = inputs
        return self._campaign(self.trials, seed, journal)

    def summarise(self, rep, inputs, output) -> RepSummary:
        stats = output.stats
        records = [record.to_json() for record in stats.records]
        if rep == 0 and self.rep0 is None:
            self.rep0 = json.dumps(records)
        missing = (stats.planned_trials or len(records)) - len(records)
        return RepSummary(
            ops=self.trials,
            digest=_digest(records),
            failures=stats.harness_failures + max(0, missing),
            counts={},
        )

    def finish(self, inputs) -> None:
        journal = inputs[1]
        if journal is not None:
            for path in journal.parent.glob(journal.name + "*"):
                path.unlink()

    def check(self, reps):
        """Rep 0 again through the serial scalar path: identical records."""
        reference = coverage_table.run_coverage_campaign(
            experiments=self.trials, seed=self.rep_seed(0)
        )
        expected = [record.to_json() for record in reference.stats.records]
        got = json.loads(self.rep0) if self.rep0 else []
        mismatched = sum(1 for a, b in zip(expected, got) if a != b)
        mismatched += abs(len(expected) - len(got))
        return mismatched, {
            "scalar_rerun_rep0": "identical" if not mismatched else "differs",
            "mismatched_trials": mismatched,
            "harness_failures_rerun": reference.stats.harness_failures,
        }


# ----------------------------------------------------------------------
# Reliability sensitivity study
# ----------------------------------------------------------------------

class ReliabilitySweep(Workload):
    """One seeded sensitivity study in a fresh :class:`RunContext`."""

    def __init__(self, seed: int, quick: bool, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.coverages = 2 if quick else 6
        self.scales = 2 if quick else 8
        self.points = 5 if quick else 50
        #: rep -> (params, Figure 14 result) for the point-solve check.
        self.grids: Dict[int, Tuple[BbwParameters, Any]] = {}

    def _inputs(self, seed: int, coverages: int, scales: int):
        rng = np.random.default_rng(seed)
        params = (
            BbwParameters.paper()
            .with_coverage(float(rng.uniform(0.95, 0.999)))
            .with_transient_scale(float(10 ** rng.uniform(0.0, 0.5)))
        )
        grid_coverages = sorted(float(c) for c in rng.uniform(0.9, 0.9999, coverages))
        grid_scales = sorted(float(10 ** s) for s in rng.uniform(0.0, 3.0, scales))
        return params, grid_coverages, grid_scales

    def _study(self, params, coverages, scales, points):
        with runtime.activate(runtime.RunContext(runtime.RunConfig())):
            return (
                figure14.compute_figure14(params, rate_scales=scales, coverages=coverages),
                figure12.compute_figure12(params, points=points),
                figure13.compute_figure13(params, points=points),
                mttf_table.compute_mttf_table(params),
            )

    def warm_up(self) -> None:
        params, coverages, scales = self._inputs(self.rep_seed(WARM_UP_REP), 1, 1)
        self._study(params, coverages, scales, 2)

    def prepare(self, rep: int):
        return self._inputs(self.rep_seed(rep), self.coverages, self.scales)

    def run(self, inputs):
        params, coverages, scales = inputs
        return self._study(params, coverages, scales, self.points)

    def summarise(self, rep, inputs, output) -> RepSummary:
        f14, f12, f13, table = output
        self.grids.setdefault(rep, (inputs[0], f14))
        values = [
            *(
                value
                for node_type in sorted(f14.reliability)
                for _, value in sorted(f14.reliability[node_type].items())
            ),
            *(v for key in sorted(f12.curves) for v in f12.curves[key]),
            *(v for key in sorted(f13.curves) for v in f13.curves[key]),
            *(table.r_one_year[key] for key in sorted(table.r_one_year)),
        ]
        in_range = all(0.0 <= v <= 1.0 for v in values)
        mttf = [table.mttf_years[key] for key in sorted(table.mttf_years)]
        return RepSummary(
            ops=1,
            digest=_digest([repr(v) for v in values + mttf]),
            failures=0 if in_range and all(m > 0 and math.isfinite(m) for m in mttf) else 1,
            counts={},
        )

    def check(self, reps):
        """Eight seeded grid points against ``model.reliability`` (1e-9)."""
        rng = np.random.default_rng(derive_seed(self.seed, WARM_UP_REP + 1))
        failed_reps = set()
        worst = 0.0
        for _ in range(8):
            rep = reps[int(rng.integers(len(reps)))]
            params, f14 = self.grids[rep]
            node_type = ("fs", "nlft")[int(rng.integers(2))]
            point = sorted(f14.reliability[node_type])[int(rng.integers(
                len(f14.reliability[node_type])
            ))]
            coverage, scale = point
            with runtime.activate(runtime.RunContext(runtime.RunConfig())):
                model = build_bbw_system(
                    params.with_coverage(coverage).with_transient_scale(scale),
                    node_type, "degraded",
                )
                expected = model.reliability(figure14.MISSION_HOURS)
            error = abs(expected - f14.reliability[node_type][point])
            worst = max(worst, error)
            if not error <= GRID_TOLERANCE:
                failed_reps.add(rep)
        return len(failed_reps), {"grid_points_checked": 8, "worst_abs_error": worst}


# ----------------------------------------------------------------------
# Multicore DES trials
# ----------------------------------------------------------------------

_MC_CONFIGS = tuple(
    (mode, protocol)
    for mode in (TemMode.TEMPORAL, TemMode.SPATIAL)
    for protocol in (ResourceProtocol.LOCK, ResourceProtocol.LOCK_FREE)
)


def _trial_result(outcome: str, scheduler) -> Tuple[str, int, Any, Any]:
    """What experiment E15 reads from a finished trial (no scheduler kept)."""
    return outcome, scheduler.sim.events_executed, scheduler.resources.stats, scheduler.stats


def _fingerprint(result: Tuple[str, int, Any, Any]) -> str:
    outcome, events, resources, jobs = result
    return json.dumps(
        [outcome, events, dataclasses.asdict(resources), dataclasses.asdict(jobs)],
        separators=(",", ":"),
    )


class MulticoreDes(Workload):
    """``multicore_trials(50, derive(S, rep))`` under all four configs."""

    def __init__(self, seed: int, quick: bool, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.trials = 4 if quick else 50
        #: rep -> per-call fingerprints (JSON strings), in call order.
        self.fingerprints: Dict[int, List[str]] = {}

    def warm_up(self) -> None:
        seed = self.rep_seed(WARM_UP_REP)
        trial = multicore_tem.multicore_trials(1, seed)[0]
        for mode, protocol in _MC_CONFIGS:
            multicore_tem.run_multicore_trial(trial, mode, protocol, seed=seed)

    def prepare(self, rep: int):
        seed = self.rep_seed(rep)
        return seed, multicore_tem.multicore_trials(self.trials, seed)

    def run(self, inputs):
        seed, trials = inputs
        clock = time.perf_counter
        run_trial = multicore_tem.run_multicore_trial
        results, latencies = [], []
        for mode, protocol in _MC_CONFIGS:
            for index, trial in enumerate(trials):
                started = clock()
                outcome, scheduler = run_trial(
                    trial, mode, protocol, seed=derive_seed(seed, index)
                )
                latencies.append(clock() - started)
                results.append(_trial_result(outcome, scheduler))
        return results, latencies

    def summarise(self, rep, inputs, output) -> RepSummary:
        results, latencies = output
        prints = [_fingerprint(result) for result in results]
        self.fingerprints.setdefault(rep, prints)
        return RepSummary(
            ops=len(results),
            digest=_digest(prints),
            failures=0,
            counts={
                "kernel.migrations": sum(jobs.migrations for *_, jobs in results),
                "kernel.lock_contentions": sum(res.contentions for _, _, res, _ in results),
                "kernel.omissions": sum(jobs.omissions for *_, jobs in results),
                "sim.events_executed": sum(events for _, events, _, _ in results),
            },
            latencies_s=latencies,
        )

    def check(self, reps):
        """Ten seeded trials again: same outcome, events and stats."""
        rng = np.random.default_rng(derive_seed(self.seed, WARM_UP_REP + 1))
        failed = 0
        for _ in range(10):
            rep = reps[int(rng.integers(len(reps)))]
            call = int(rng.integers(len(self.fingerprints[rep])))
            mode, protocol = _MC_CONFIGS[call // self.trials]
            index = call % self.trials
            seed, trials = self.prepare(rep)
            outcome, scheduler = multicore_tem.run_multicore_trial(
                trials[index], mode, protocol, seed=derive_seed(seed, index)
            )
            if _fingerprint(_trial_result(outcome, scheduler)) != self.fingerprints[rep][call]:
                failed += 1
        return failed, {"trials_rerun": 10, "mismatched_trials": failed}


def make(name: str, seed: int, quick: bool, scratch: Path) -> Workload:
    """Instantiate the workload called *name*."""
    if name == "e5_scalar":
        workload: Workload = E5Campaign(seed, quick, scratch)
    elif name == "e5_batch":
        workload = E5Campaign(seed, quick, scratch, batch=1024)
    elif name == "e5_jobs2":
        workload = E5Campaign(seed, quick, scratch, workers=2, batch=1024)
    elif name == "reliability_sweep":
        workload = ReliabilitySweep(seed, quick, scratch)
    elif name == "multicore_des":
        workload = MulticoreDes(seed, quick, scratch)
    else:
        raise KeyError(name)
    workload.name = name
    return workload
