"""Run every experiment and print the paper-comparable output.

``python -m repro.experiments.runner`` regenerates all tables and figures.
The section index is not hand-wired here: it is resolved through the
declarative experiment registry (:mod:`repro.experiments.registry`), the
same source of truth behind ``python -m repro --list`` / ``run <id>`` and
each benchmark in ``benchmarks/`` (see DESIGN.md's per-experiment index).

The runner is fault-tolerant in the same spirit as the system it
reproduces: each section runs isolated, a failing section prints an
``[ERROR]`` banner and the report continues with the remaining sections
(``main`` still exits non-zero).  The campaign-shaped sections (E5, E8a,
E11, E12) route through the resilient campaign supervisor
(:mod:`repro.harness`) and accept ``--jobs``, ``--timeout`` and
``--resume``::

    python -m repro.experiments.runner --fast --jobs 4 --timeout 30 \
        --resume /tmp/nlft-journals

Observability (:mod:`repro.obs`): every section runs inside its own
metrics capture, its wall-clock and hot-path digest is appended to the
section text, and ``--metrics PATH`` exports one snapshot row per section
(JSONL, or CSV when the path ends in ``.csv``).  ``--profile`` adds
cProfile capture of the hottest campaign trials; a live progress line is
shown on TTY stderr unless ``--no-progress``::

    python -m repro.experiments.runner --fast --jobs 2 \
        --metrics out.jsonl --profile
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from .. import runtime
from ..obs import health as obs_health
from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs.export import MAX_PROFILE_CHARS, MetricsSink, SectionMetrics
from . import registry as experiment_registry


def _banner(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{bar}\n{title}\n{bar}\n"


@dataclasses.dataclass
class SectionReport:
    """One section's outcome: its rendered text or the error that ate it."""

    title: str
    text: str = ""
    error: Optional[str] = None
    #: Section wall-clock in seconds.
    elapsed_s: float = 0.0
    #: Metrics snapshot captured while the section ran (None when the
    #: section recorded nothing).
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass
class RunnerReport:
    """All sections, with per-section fault containment."""

    sections: List[SectionReport]

    @property
    def failures(self) -> List[str]:
        return [section.title for section in self.sections if not section.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def text(self) -> str:
        parts = []
        for section in self.sections:
            parts.append(_banner(section.title))
            if section.ok:
                parts.append(section.text)
            else:
                parts.append(f"[ERROR] {section.error}")
        if self.failures:
            parts.append(_banner("FAILED SECTIONS"))
            parts.extend(f"  {title}" for title in self.failures)
        return "\n".join(parts)


def build_run_config(
    fast: bool = False,
    jobs: int = 0,
    timeout: Optional[float] = None,
    resume: Optional[Path] = None,
    progress: bool = False,
    profile: bool = False,
    chaos: Optional[str] = None,
    chaos_seed: int = 0,
) -> runtime.RunConfig:
    """The :class:`repro.runtime.RunConfig` of one runner invocation.

    The runner CLI's historic ``--fast`` flag selects *smoke-test campaign
    sizes* (``RunConfig.smoke``).
    """
    return runtime.RunConfig(
        smoke=fast,
        jobs=jobs,
        timeout_s=timeout,
        resume_dir=str(resume) if resume is not None else None,
        progress=progress,
        profile=profile,
        chaos=chaos,
        chaos_seed=chaos_seed,
    )


def build_sections(
    fast: bool = False,
    jobs: int = 0,
    timeout: Optional[float] = None,
    resume: Optional[Path] = None,
    progress: bool = False,
    profile: bool = False,
    context: Optional[runtime.RunContext] = None,
) -> "Dict[str, Callable[[], str]]":
    """The experiment index E1-E13, resolved through the registry.

    Every section is one registered :class:`~repro.experiments.registry.
    Experiment`; its driver derives all knobs — campaign sizes, worker
    count, per-trial timeout, journal paths, observability switches — from
    the section's run context.  The keyword arguments build that context
    (``fast`` selects smoke campaign sizes, ``jobs`` / ``timeout`` /
    ``resume`` shape the campaign supervisor, ``progress`` / ``profile``
    are the :mod:`repro.obs` knobs); pass ``context`` instead to supply a
    ready-made one.
    """
    if context is None:
        context = runtime.RunContext(build_run_config(
            fast=fast, jobs=jobs, timeout=timeout, resume=resume,
            progress=progress, profile=profile,
        ))

    def make_section(exp: experiment_registry.Experiment) -> Callable[[], str]:
        return lambda: exp.render(exp.run(context))

    return {
        exp.section_title: make_section(exp)
        for exp in experiment_registry.load_all()
    }


def _drain_hot_trials() -> "List[dict]":
    """Pull this section's hottest-trial profiles off the active run
    context's collector (empty when --profile is off)."""
    collector = obs_profile.collector()
    if collector is None:
        return []
    return [
        {
            "campaign": trial.campaign,
            "trial_id": trial.trial_id,
            "duration_s": round(trial.duration_s, 6),
            "profile": trial.profile_text[:MAX_PROFILE_CHARS],
        }
        for trial in collector.drain()
    ]


def run_sections(
    sections: "Dict[str, Callable[[], str]]",
    sink: Optional[MetricsSink] = None,
) -> RunnerReport:
    """Run each section isolated; one failure never aborts the report.

    Every section executes inside its own metrics capture
    (:func:`repro.obs.metrics.capture`), so the snapshot attached to its
    :class:`SectionReport` — and exported through *sink*, when given — is
    exactly what that section recorded, with no cross-section bleed.  The
    capture merges upstream on exit, so the run context's base registry
    still accumulates the whole-run aggregate.
    """
    reports: List[SectionReport] = []
    for title, section in sections.items():
        started = perf_counter()  # reprolint: disable=DET001 -- report wall-clock: per-section elapsed time shown in the [obs] footer, not a simulation input
        error: Optional[str] = None
        text = ""
        with obs_metrics.capture(merge_upstream=True) as registry:
            try:
                text = section()
            except Exception as exc:  # noqa: BLE001 — per-section containment
                error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
        elapsed = perf_counter() - started  # reprolint: disable=DET001 -- report wall-clock: same elapsed-time footer as above
        snapshot = registry.snapshot()
        hot_trials = _drain_hot_trials()
        empty = obs_metrics.snapshot_is_empty(snapshot)
        if error is None and not empty:
            text += (
                f"\n\n[obs] wall-clock {elapsed:.2f}s | hot paths: "
                f"{obs_metrics.format_hot_paths(snapshot)}"
            )
            # Harness fault-tolerance events (lease takeovers, journal
            # salvages, chaos injections): the line appears only when
            # something fault-related actually happened, so healthy-run
            # reports stay byte-identical.
            health = obs_health.format_harness_health(snapshot)
            if health:
                text += f"\n[harness] {health}"
        reports.append(
            SectionReport(
                title=title,
                text=text,
                error=error,
                elapsed_s=elapsed,
                metrics=None if empty else snapshot,
            )
        )
        if sink is not None:
            sink.write(
                SectionMetrics(
                    section=title,
                    status="ok" if error is None else "error",
                    elapsed_s=elapsed,
                    metrics=snapshot,
                    hot_trials=hot_trials,
                    error=error,
                )
            )
    return RunnerReport(sections=reports)


def run_report(
    fast: bool = False,
    jobs: int = 0,
    timeout: Optional[float] = None,
    resume: Optional[Path] = None,
    progress: bool = False,
    profile: bool = False,
    metrics_path: "Optional[Path | str]" = None,
    config: Optional[runtime.RunConfig] = None,
    chaos: Optional[str] = None,
    chaos_seed: int = 0,
) -> RunnerReport:
    """Run E1-E13 with per-section containment; structured result.

    The whole run executes inside one activated
    :class:`repro.runtime.RunContext`, so every layer — metrics
    registry stack, profile collector, shard runners —
    resolves through the same context and concurrent reports never share
    state.  Pass ``config`` (e.g. loaded via
    :meth:`repro.runtime.RunConfig.from_file`) to override the keyword
    knobs wholesale.
    """
    if config is None:
        config = build_run_config(
            fast=fast, jobs=jobs, timeout=timeout, resume=resume,
            progress=progress, profile=profile,
            chaos=chaos, chaos_seed=chaos_seed,
        )
    context = runtime.RunContext(config)
    sections = build_sections(context=context)
    sink = MetricsSink(metrics_path) if metrics_path is not None else None
    try:
        with runtime.activate(context):
            if config.profile:
                with obs_profile.enabled():
                    return run_sections(sections, sink=sink)
            return run_sections(sections, sink=sink)
    finally:
        if sink is not None:
            sink.close()


def run_all(
    fast: bool = False,
    jobs: int = 0,
    timeout: Optional[float] = None,
    resume: Optional[Path] = None,
) -> str:
    """Run E1-E13 and return the combined report text."""
    return run_report(fast=fast, jobs=jobs, timeout=timeout, resume=resume).text


def _parse_args(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate every table and figure of the paper.",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="smaller campaigns / fewer replicas (smoke-test sizes)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="crash-tolerant shard runner processes for campaign "
             "sections (lease/heartbeat failure detection, fencing-token "
             "takeover; 0 = serial in-process, the default)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock budget; hung trials are interrupted "
             "(SIGALRM) and classified HARNESS_TIMEOUT",
    )
    parser.add_argument(
        "--resume", type=Path, default=None, metavar="PATH",
        help="directory for per-campaign JSONL checkpoint journals; pass "
             "the same path again to resume an interrupted run",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic chaos injection into the --jobs shard "
             "runners, e.g. 'die:40,stall:80,corrupt:0:tear' (die:T, "
             "stall:T, corrupt:K:MODE)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed of the chaos policy's corruption-byte generator",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None, metavar="PATH",
        help="export one metrics snapshot per section to PATH "
             "(JSONL; CSV when the path ends in .csv)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="capture cProfile statistics of the hottest campaign trials "
             "(expensive; embedded in the --metrics export)",
    )
    parser.add_argument(
        "--no-progress", action="store_true",
        help="suppress the live campaign progress line (it is already "
             "silent when stderr is not a TTY)",
    )
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    args = _parse_args(argv)
    if args.resume is not None:
        args.resume.mkdir(parents=True, exist_ok=True)
    report = run_report(
        fast=args.fast, jobs=args.jobs, timeout=args.timeout, resume=args.resume,
        progress=not args.no_progress, profile=args.profile,
        metrics_path=args.metrics,
        chaos=args.chaos, chaos_seed=args.chaos_seed,
    )
    print(report.text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
