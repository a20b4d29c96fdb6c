"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro                       # full E1-E15 report
    python -m repro --list                # list registered experiments
    python -m repro run mttf_table        # run one experiment by id
    python -m repro run coverage_table --fast --jobs 2 --json out.json
    python -m repro --config run.json --fast --metrics out.jsonl

One parser serves both modes, and every flag means the same in each.
The :class:`repro.runtime.RunConfig` is built in layers: the CLI default
(progress line on), then the ``--config FILE`` fields, then each flag
given.  The report runs through :func:`repro.experiments.runner.run_report`
— all sections, or only the one ``run EXPERIMENT`` names — and ``--json``
writes the structured result (one experiment's, or an id-keyed object of
every rendered section's).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import runtime
from .errors import ReproError
from .experiments import registry as experiment_registry
from .experiments.runner import RunnerReport, run_report
from .runtime.config import read_config_file

#: RunConfig fields a flag can set (argparse ``dest`` names).
_CONFIG_FIELDS = frozenset(
    field.name for field in dataclasses.fields(runtime.RunConfig)
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate every table and figure of the paper, or "
                    "one registered experiment with 'run EXPERIMENT'.",
    )
    parser.add_argument(
        "command", nargs="*", metavar="run EXPERIMENT",
        help="run one experiment (ids: --list) instead of the full report",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the registered experiments and exit",
    )
    parser.add_argument(
        "--config", type=Path, metavar="FILE",
        help="read RunConfig fields from a JSON file; flags override them",
    )
    # RunConfig flags: absent unless given, so an omitted flag leaves the
    # --config file's value in place.
    unset = argparse.SUPPRESS
    parser.add_argument(
        "--fast", dest="smoke", action="store_true", default=unset,
        help="smoke-test campaign sizes instead of paper-scale ones",
    )
    parser.add_argument(
        "--jobs", type=int, metavar="N", default=unset,
        help="crash-tolerant shard runner processes for campaign "
             "experiments (heartbeat failure detection, kill-and-respawn "
             "takeover; 0 = serial in-process, the default)",
    )
    parser.add_argument(
        "--timeout", dest="timeout_s", type=float, metavar="SECONDS",
        default=unset,
        help="per-trial wall-clock budget; hung trials are interrupted "
             "(SIGALRM) and classified HARNESS_TIMEOUT",
    )
    parser.add_argument(
        "--resume", dest="resume_dir", metavar="DIR", default=unset,
        help="directory for per-campaign JSONL checkpoint journals; pass "
             "the same path again to resume an interrupted run",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default=unset,
        help="deterministic chaos injection into the --jobs shard "
             "runners, e.g. 'die:40,stall:80,corrupt:0:tear' (die:T, "
             "stall:T, corrupt:K:MODE)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, metavar="SEED", default=unset,
        help="seed of the chaos policy's corruption-byte generator",
    )
    parser.add_argument(
        "--profile", action="store_true", default=unset,
        help="capture cProfile statistics of the hottest campaign trials "
             "(expensive; embedded in the --metrics export)",
    )
    parser.add_argument(
        "--no-progress", dest="progress", action="store_false", default=unset,
        help="suppress the live campaign progress line (it is already "
             "silent when stderr is not a TTY)",
    )
    parser.add_argument(
        "--metrics", type=Path, metavar="PATH",
        help="export one metrics snapshot per section to PATH "
             "(JSONL; CSV when the path ends in .csv)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the structured result as JSON ('-' for stdout)",
    )
    return parser


def parse_args(
    argv: Optional[List[str]] = None,
) -> Tuple[argparse.Namespace, runtime.RunConfig]:
    """The parsed flags and the merged :class:`~repro.runtime.RunConfig`.

    Raises :class:`~repro.errors.ConfigurationError` for a bad config
    file or field value; usage errors exit through argparse.
    """
    parser = _parser()
    args = parser.parse_intermixed_args(argv)
    if args.command and (len(args.command) != 2 or args.command[0] != "run"):
        parser.error("expected 'run EXPERIMENT' or no command")
    fields: Dict[str, Any] = {"progress": True}
    if args.config is not None:
        fields.update(read_config_file(args.config))
    fields.update(
        (name, value) for name, value in vars(args).items()
        if name in _CONFIG_FIELDS
    )
    config = runtime.RunConfig.from_dict(fields)
    if config.chaos and config.jobs == 0:
        parser.error(
            "chaos is injected into shard runners only: add --jobs N (N >= 1)"
        )
    config.chaos_policy()  # a malformed spec fails here, before any section
    return args, config


def _cmd_list() -> int:
    registry = experiment_registry.load_all()
    width = max(len(exp.id) for exp in registry)
    for exp in registry:
        tags = f"  [{', '.join(exp.tags)}]" if exp.tags else ""
        print(f"{exp.id:<{width}}  {exp.section_title}{tags}")
        for anchor in exp.paper_anchors:
            print(f"{'':<{width}}    - {anchor}")
    return 0


def _write_json(path: str, report: RunnerReport, experiment: Optional[str]) -> None:
    """Export the rendered sections' structured results: one experiment's
    dict in ``run`` mode, else an id-keyed object of them all."""
    by_title = {exp.section_title: exp for exp in experiment_registry.load_all()}
    results = {
        by_title[section.title].id: by_title[section.title].to_dict(section.result)
        for section in report.sections
        if section.ok
    }
    payload = results if experiment is None else results.get(experiment)
    if payload is None:  # the one section failed; the report shows its error
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args, config = parse_args(argv)
        if args.list:
            return _cmd_list()
        if config.resume_dir is not None:
            Path(config.resume_dir).mkdir(parents=True, exist_ok=True)
        experiment = args.command[1] if args.command else None
        report = run_report(config, metrics_path=args.metrics, experiment=experiment)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.text)
    if args.json is not None:
        _write_json(args.json, report, experiment)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
