"""reprolint — static analysis for determinism, seeds and context hygiene.

The repo's correctness story rests on invariants nothing used to enforce
mechanically: bit-identical checkpoint/resume needs **no wall-clock and no
unseeded randomness** in simulation code; the production-vs-oracle
differential gates need **no iteration order leaks** on result paths; the
context-scoped runtime needs **no module-level mutable state** and **no
process-default singleton access** from library code.  This package
checks those invariants at lint time — masking determinism faults before
they escalate to flaky golden-fixture failures, the same
detect-early-mask-early stance the source paper takes for node failures.

Beyond per-file rules, the **whole-program layer** links every module
under ``src/repro`` into a project index (approximate call graph) and enforces the *cross-module* invariants: call chains must
not reach nondeterminism sinks (DET004), RNG seeds must descend from
``derive_seed`` lineage (SEED001), nothing unpicklable may cross a
worker spawn boundary (PKL001), and the scalar/batch twin APIs stay in
lock-step (PAR001).  Per-file results are cached by content hash, so a
warm run re-analyses only what changed — and is bit-identical to a cold
run.

Layout:

* :mod:`~repro.analysis.findings` — the :class:`Finding` record;
* :mod:`~repro.analysis.base` — :class:`Checker` base, import resolution;
* :mod:`~repro.analysis.nondet` — shared nondeterminism-sink tables;
* :mod:`~repro.analysis.callgraph` — module summaries and the call
  graph (:class:`ProjectIndex`);
* :mod:`~repro.analysis.project` — :class:`ProjectChecker` base for
  whole-program rules;
* :mod:`~repro.analysis.registry` — the plugin registry
  (:func:`register_checker`, :func:`register_project_checker`);
* :mod:`~repro.analysis.checkers` — the built-in rules (DET001/002/003/
  004, CTX001/002, SIM001, SEED001, PKL001, PAR001);
* :mod:`~repro.analysis.suppressions` — ``# reprolint: disable=RULE --
  reason`` comments (reason mandatory), the only way to exempt a
  finding; one that covers nothing is reported stale (SUP002);
* :mod:`~repro.analysis.cache` — incremental per-file result cache;
* :mod:`~repro.analysis.engine` — discovery, incremental parallel
  analysis, the project pass;
* :mod:`~repro.analysis.report` / :mod:`~repro.analysis.cli` — text,
  JSON and SARIF output and the ``python -m repro.analysis`` entry point.

Run ``python -m repro.analysis --list-rules`` for the rule catalogue and
``--explain RULE`` for any rule's invariant, violating example and fix.
"""

from __future__ import annotations

from .base import Checker, ImportMap, ModuleSource, path_in_scope  # noqa: F401
from .cache import AnalysisCache, content_sha  # noqa: F401
from .callgraph import (  # noqa: F401
    FunctionFacts,
    ModuleSummary,
    ProjectIndex,
    extract_summary,
    module_name_for,
)
from .cli import main  # noqa: F401
from .engine import (  # noqa: F401
    AnalysisResult,
    analyze_file,
    build_project_index,
    discover_files,
    find_repo_root,
    run_analysis,
)
from .findings import ERROR, WARNING, Finding, sort_findings  # noqa: F401
from .project import ProjectChecker  # noqa: F401
from .registry import (  # noqa: F401
    all_rule_ids,
    build_checkers,
    build_project_checkers,
    checker_rule_ids,
    explain_rule,
    get_checker,
    get_project_checker,
    is_known_rule,
    project_rule_ids,
    register_checker,
    register_project_checker,
    rule_descriptions,
)
from .report import (  # noqa: F401
    REPORT_SCHEMA,
    parse_json_report,
    render_json,
    render_json_dict,
    render_sarif,
    render_sarif_dict,
    render_text,
)

__all__ = [
    "AnalysisCache",
    "AnalysisResult",
    "Checker",
    "ERROR",
    "Finding",
    "FunctionFacts",
    "ImportMap",
    "ModuleSource",
    "ModuleSummary",
    "ProjectChecker",
    "ProjectIndex",
    "REPORT_SCHEMA",
    "WARNING",
    "all_rule_ids",
    "analyze_file",
    "build_checkers",
    "build_project_checkers",
    "build_project_index",
    "checker_rule_ids",
    "content_sha",
    "discover_files",
    "explain_rule",
    "extract_summary",
    "find_repo_root",
    "get_checker",
    "get_project_checker",
    "is_known_rule",
    "main",
    "module_name_for",
    "parse_json_report",
    "path_in_scope",
    "project_rule_ids",
    "register_checker",
    "register_project_checker",
    "render_json",
    "render_json_dict",
    "render_sarif",
    "render_sarif_dict",
    "render_text",
    "rule_descriptions",
    "run_analysis",
    "sort_findings",
]
