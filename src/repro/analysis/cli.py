"""Command-line interface: ``PYTHONPATH=src python -m repro.analysis``.

Exit codes: 0 — gate passes (no error findings; warnings allowed);
1 — at least one error finding; 2 — usage error.  A finding is exempted
only by an inline ``# reprolint: disable=RULE -- reason`` on its line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .cache import DEFAULT_CACHE_PATH
from .engine import find_repo_root, run_analysis
from .registry import all_rule_ids, explain_rule, is_known_rule, rule_descriptions
from .report import exit_code, render_json, render_sarif, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Static analysis enforcing determinism, seed discipline and "
            "context hygiene across the simulator."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyse (default: the standard roots)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repo root (default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0 = auto, 1 = serial)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every rule with its severity and protected invariant",
    )
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print a rule's invariant, a minimal violating example and the "
             "sanctioned fix, then exit",
    )
    parser.add_argument(
        "--cache", type=Path, default=None,
        help=f"incremental cache file (default: {DEFAULT_CACHE_PATH} under "
             "the root)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache (analyse every file from scratch)",
    )
    return parser


def _resolve_jobs(requested: int, n_hint: int = 64) -> int:
    if requested > 0:
        return requested
    import os

    count = getattr(os, "process_cpu_count", os.cpu_count)() or 1
    return max(1, min(8, count, n_hint))


def _list_rules() -> str:
    lines = []
    for rule_id, info in rule_descriptions().items():
        lines.append(f"{rule_id}  [{info['severity']}]  {info['title']}")
        if info.get("invariant"):
            lines.append(f"        protects: {info['invariant']}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        sys.stdout.write(_list_rules())
        return 0

    if args.explain:
        try:
            sys.stdout.write(explain_rule(args.explain) + "\n")
        except KeyError:
            sys.stderr.write(
                f"reprolint: unknown rule {args.explain!r} "
                f"(known: {', '.join(all_rule_ids())})\n"
            )
            return 2
        return 0

    rules: Optional[List[str]] = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(r for r in rules if not is_known_rule(r))
        if unknown:
            sys.stderr.write(
                f"reprolint: unknown rule(s): {', '.join(unknown)} "
                f"(known: {', '.join(all_rule_ids())})\n"
            )
            return 2

    root = (args.root or find_repo_root()).resolve()
    cache_path: Optional[Path] = None
    if not args.no_cache:
        cache_path = args.cache or (root / DEFAULT_CACHE_PATH)

    result = run_analysis(
        root,
        paths=args.paths or None,
        rules=rules,
        jobs=_resolve_jobs(args.jobs),
        cache_path=cache_path,
    )

    if args.format == "json":
        report = render_json(result)
    elif args.format == "sarif":
        report = render_sarif(result)
    else:
        report = render_text(result)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(report, encoding="utf-8")
        # Keep the one-line summary on stdout so CI logs stay readable.
        sys.stdout.write(render_text(result).rsplit("\n", 2)[-2] + "\n")
    else:
        sys.stdout.write(report)
    return exit_code(result)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
