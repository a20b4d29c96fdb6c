"""Command-line entry point: the experiment registry front-end.

Usage::

    python -m repro                       # full E1-E13 report (runner flags)
    python -m repro --list                # list registered experiments
    python -m repro run mttf_table        # run one experiment by id
    python -m repro run coverage_table --fast --jobs 2 --json out.json
    python -m repro --config run.json     # full report from a RunConfig file

``run`` executes a single registered experiment inside its own activated
:class:`repro.runtime.RunContext`, prints the rendered section and can
export the structured result as JSON (``--json PATH``, or ``-`` for
stdout).  Any other invocation is the classic full-report runner
(:mod:`repro.experiments.runner`); ``--config FILE`` loads the
:class:`repro.runtime.RunConfig` from a JSON file instead of flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import runtime
from .errors import ReproError
from .experiments import registry as experiment_registry
from .experiments.runner import main as runner_main
from .experiments.runner import run_report


def _cmd_list() -> int:
    registry = experiment_registry.load_all()
    width = max(len(exp.id) for exp in registry)
    for exp in registry:
        tags = f"  [{', '.join(exp.tags)}]" if exp.tags else ""
        print(f"{exp.id:<{width}}  {exp.section_title}{tags}")
        for anchor in exp.paper_anchors:
            print(f"{'':<{width}}    - {anchor}")
    return 0


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run one registered experiment by id.",
    )
    parser.add_argument("experiment", help="experiment id (see --list)")
    parser.add_argument(
        "--config", type=Path, default=None, metavar="FILE",
        help="load the RunConfig from a JSON file (flags below override it)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="smoke-test campaign sizes (RunConfig.smoke)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="shard runner processes for campaign experiments",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock budget for campaign experiments",
    )
    parser.add_argument(
        "--resume", type=Path, default=None, metavar="PATH",
        help="directory for checkpoint journals (and shard leases)",
    )
    parser.add_argument(
        "--chaos", type=str, default=None, metavar="SPEC",
        help="deterministic chaos injection into the --jobs shard "
             "runners, e.g. 'die:40,stall:80,corrupt:0:tear' (die:T, "
             "stall:T, corrupt:K:MODE)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="seed of the chaos corruption-byte generator",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the structured result as JSON ('-' for stdout)",
    )
    return parser


def _cmd_run(argv: List[str]) -> int:
    args = _run_parser().parse_args(argv)
    config = (
        runtime.RunConfig.from_file(args.config)
        if args.config is not None
        else runtime.RunConfig()
    )
    overrides = {}
    if args.fast:
        overrides["smoke"] = True
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout
    if args.resume is not None:
        args.resume.mkdir(parents=True, exist_ok=True)
        overrides["resume_dir"] = str(args.resume)
    if args.chaos is not None:
        overrides["chaos"] = args.chaos
    if args.chaos_seed is not None:
        overrides["chaos_seed"] = args.chaos_seed
    if overrides:
        config = config.replace(**overrides)
    exp = experiment_registry.load_all().get(args.experiment)
    context = runtime.RunContext(config)
    with runtime.activate(context):
        result = exp.run(context)
    print(exp.render(result))
    if args.json is not None:
        payload = json.dumps(exp.to_dict(result), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
    return 0


def _cmd_report_from_config(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Full report driven by a RunConfig JSON file.",
    )
    parser.add_argument("--config", type=Path, required=True, metavar="FILE")
    parser.add_argument(
        "--metrics", type=Path, default=None, metavar="PATH",
        help="export one metrics snapshot per section (JSONL/CSV)",
    )
    args = parser.parse_args(argv)
    config = runtime.RunConfig.from_file(args.config)
    if config.resume_dir is not None:
        Path(config.resume_dir).mkdir(parents=True, exist_ok=True)
    report = run_report(config=config, metrics_path=args.metrics)
    print(report.text)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if "--list" in argv:
            return _cmd_list()
        if argv and argv[0] == "run":
            return _cmd_run(argv[1:])
        if "--config" in argv:
            return _cmd_report_from_config(argv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return runner_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
