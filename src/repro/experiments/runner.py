"""Run every experiment and collect the paper-comparable report.

The library behind ``python -m repro`` (:mod:`repro.__main__`, the only
command line).  The section index is not hand-wired here: it is resolved
through the declarative experiment registry
(:mod:`repro.experiments.registry`), the same source of truth behind
``python -m repro --list`` / ``run <id>`` and each benchmark in
``benchmarks/`` (see DESIGN.md's per-experiment index)::

    from repro.runtime import RunConfig
    from repro.experiments.runner import run_report

    report = run_report(RunConfig(smoke=True, jobs=2), metrics_path="m.jsonl")
    print(report.text)

The runner is fault-tolerant in the same spirit as the system it
reproduces: each section runs isolated, a failing section prints an
``[ERROR]`` banner and the report continues with the remaining sections
(``report.ok`` turns false).  Every section runs inside its own metrics
capture (:mod:`repro.obs`); its wall-clock and hot-path digest is
appended to the section text, and *metrics_path* exports one snapshot row
per section.
"""

from __future__ import annotations

import dataclasses
import functools
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

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
    #: What the section returned: its text, or the structured result
    #: whose ``render()`` is the text (None when the section failed).
    result: Any = None

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


def build_sections(context: runtime.RunContext) -> "Dict[str, Callable[[], Any]]":
    """The experiment index E1-E15, resolved through the registry.

    Every section is one registered :class:`~repro.experiments.registry.
    Experiment` bound to *context*; its driver derives all knobs —
    campaign sizes, worker count, per-trial timeout, journal paths,
    observability switches — from ``context.config``.  A section returns
    the experiment's structured result; :func:`run_sections` renders it.
    """
    return {
        exp.section_title: functools.partial(exp.run, context)
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
    sections: "Dict[str, Callable[[], Any]]",
    sink: Optional[MetricsSink] = None,
) -> RunnerReport:
    """Run each section isolated; one failure never aborts the report.

    A section returns its text, or a structured result whose ``render()``
    gives the text (:attr:`SectionReport.result` keeps what it returned).
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
        result: Any = None
        text = ""
        with obs_metrics.capture(merge_upstream=True) as registry:
            try:
                result = section()
                text = result if isinstance(result, str) else result.render()
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
                result=result,
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
    config: runtime.RunConfig,
    metrics_path: "Optional[Path | str]" = None,
    experiment: Optional[str] = None,
) -> RunnerReport:
    """Run E1-E15 (or only the registered *experiment* id) with
    per-section containment; structured result.

    The whole run executes inside one activated
    :class:`repro.runtime.RunContext` built from *config*, so every
    layer — metrics registry stack, profile collector, shard runners —
    resolves through the same context and concurrent reports never share
    state.  *metrics_path* exports one snapshot row per section (JSONL,
    or CSV when the path ends in ``.csv``).
    """
    context = runtime.RunContext(config)
    sections = build_sections(context)
    if experiment is not None:
        title = experiment_registry.load_all().get(experiment).section_title
        sections = {title: sections[title]}
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
