"""The analysis engine: discovery, incremental per-file + project analysis.

One :func:`run_analysis` call is one lint pass:

1. **Discover** Python files under the requested roots (default:
   ``src/repro``, ``tests``, ``examples``, ``benchmarks``, ``tools``),
   skipping ``__pycache__`` and the checker test fixtures (which are
   deliberate violations).
2. **Link the project**: every file under ``src/repro`` is summarised
   (:mod:`repro.analysis.callgraph`) — from the incremental cache when
   its content hash matches, parsed otherwise — and the summaries are
   linked into a :class:`ProjectIndex`.  The index is always built over
   the *whole* of ``src/repro``, regardless of which paths were
   requested: whole-program rules need the whole program, and it is what
   makes analysing a subset of files return exactly the slice of a full
   run.
3. **Analyse** each file — cached findings by content hash, a process
   pool for the misses — then run the whole-program checkers over the
   index, filter their findings to the analysed set, and honour inline
   suppressions through the index (summaries record suppression lines,
   so even a cache-hit file keeps its exemptions).  A suppression whose
   rules all ran, in either pass, and that covered no finding of either
   is reported stale (SUP002).

Inline ``# reprolint: disable=RULE -- reason`` comments are the only
exemption: every *error* finding left after step 3 fails the gate.

Results are stable-sorted at every merge point, so neither worker
scheduling nor cache state ever shows in the report: a warm incremental
run is bit-identical to a cold full run.
"""

from __future__ import annotations

import ast
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .base import Checker, ModuleSource
from .cache import AnalysisCache, content_sha, rules_fingerprint
from .callgraph import ModuleSummary, ProjectIndex, extract_summary
from .findings import ERROR, Finding, sort_findings
from .registry import build_checkers, build_project_checkers
from .suppressions import apply_suppressions, parse_suppressions

#: Roots scanned when no explicit paths are given.
DEFAULT_ROOTS = ("src/repro", "tests", "examples", "benchmarks", "tools")

#: The root the project index is always built over.
PROJECT_ROOT = "src/repro"

#: Repo-relative prefixes never scanned.  The fixture tree contains
#: intentional violations (the checkers' positive test cases).
GLOBAL_EXCLUDES = (
    "__pycache__",
    ".git/",
    "tests/analysis/fixtures/",
)


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor of *start* (default CWD) containing pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return here


def _excluded(relpath: str) -> bool:
    return any(
        part == "__pycache__" for part in relpath.split("/")
    ) or any(relpath.startswith(p) for p in GLOBAL_EXCLUDES if p.endswith("/"))


def discover_files(
    root: Path, paths: Optional[Sequence[str]] = None
) -> List[Tuple[Path, str]]:
    """``(absolute, repo-relative-posix)`` for every Python file in scope.

    *paths* entries may be files or directories, absolute or
    root-relative.  The result is sorted by relative path, so downstream
    processing is order-independent.
    """
    requested = list(paths) if paths else [r for r in DEFAULT_ROOTS
                                           if (root / r).exists()]
    seen = {}
    for entry in requested:
        candidate = Path(entry)
        if not candidate.is_absolute():
            candidate = root / entry
        candidate = candidate.resolve()
        if candidate.is_dir():
            found = sorted(candidate.rglob("*.py"))
        elif candidate.suffix == ".py" and candidate.exists():
            found = [candidate]
        else:
            found = []
        for path in found:
            try:
                rel = path.relative_to(root).as_posix()
            except ValueError:
                rel = path.as_posix().lstrip("/")
            if _excluded(rel):
                continue
            seen[rel] = path
    return [(seen[rel], rel) for rel in sorted(seen)]


# ----------------------------------------------------------------------
# Per-file analysis
# ----------------------------------------------------------------------
def analyze_file(
    path: Path,
    relpath: str,
    checkers: Sequence[Checker],
    rules_run: Sequence[str],
) -> List[Finding]:
    """All findings for one file: checker hits minus suppressions, plus
    suppression-hygiene findings (SUP001/SUP002) and parse errors.

    *rules_run* is every rule id the run evaluates, whole-program ones
    included.  A suppression is judged once
    every rule it names is among them: one that covered no finding here
    is reported SUP002, and the engine withdraws the report when the
    comment covered a whole-program finding.  A rule that never applies
    to *relpath* counts as run, so a comment naming it is reported.
    """
    try:
        module = ModuleSource.parse(path, relpath)
    except SyntaxError as exc:
        return [Finding(
            rule="SYNTAX", severity=ERROR, path=relpath,
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}", key="syntax-error",
            hint="fix the parse error",
        )]
    raw: List[Finding] = []
    for checker in checkers:
        if checker.applies_to(relpath):
            raw.extend(checker.check(module))
    suppressions, problems = parse_suppressions(module.source, relpath)
    kept, unused = apply_suppressions(
        raw, suppressions, relpath, active_rules=frozenset(rules_run)
    )
    return sort_findings(kept + problems + unused)


def _analyze_one(args: Tuple[str, str, Tuple[str, ...]]) -> List[Finding]:
    """Process-pool worker: re-resolve checkers by rule id, then analyse."""
    path_str, relpath, rule_ids = args
    checkers = build_checkers(list(rule_ids))
    return analyze_file(Path(path_str), relpath, checkers, rule_ids)


# ----------------------------------------------------------------------
# Project index construction
# ----------------------------------------------------------------------
def summarize_source(relpath: str, data: bytes) -> ModuleSummary:
    """Summary of one file's content; unparsable files get an empty summary
    (the per-file pass reports them as SYNTAX)."""
    try:
        source = data.decode("utf-8")
        tree = ast.parse(source, filename=relpath)
    except (SyntaxError, UnicodeDecodeError, ValueError):
        return ModuleSummary(relpath=relpath, module=None)
    return extract_summary(relpath, source, tree)


def build_project_index(
    root: Path,
    cache: Optional[AnalysisCache] = None,
    shas: Optional[Dict[str, str]] = None,
) -> ProjectIndex:
    """Link the whole of ``src/repro`` into a :class:`ProjectIndex`.

    Summaries come from *cache* when the content hash matches; *shas*
    (when given) collects the observed ``relpath -> sha`` map so callers
    can reuse the hashes for the findings cache.
    """
    if cache is None:
        cache = AnalysisCache()
    summaries: List[ModuleSummary] = []
    if (root / PROJECT_ROOT).exists():
        for path, rel in discover_files(root, [PROJECT_ROOT]):
            data = path.read_bytes()
            sha = content_sha(data)
            if shas is not None:
                shas[rel] = sha
            summary = cache.get_summary(rel, sha)
            if summary is None:
                summary = summarize_source(rel, data)
                cache.put_summary(rel, sha, summary)
            summaries.append(summary)
    return ProjectIndex(summaries)


# ----------------------------------------------------------------------
# The full pass
# ----------------------------------------------------------------------
@dataclasses.dataclass
class AnalysisResult:
    """Outcome of one :func:`run_analysis` pass."""

    #: Unsuppressed findings: errors here fail the gate, warnings do not.
    findings: List[Finding]
    #: Number of files analysed.
    files_scanned: int
    #: Rule ids that ran.
    rules: List[str]
    #: Files whose per-file findings were recomputed this run.
    files_reanalyzed: int = 0
    #: Files served from the incremental cache.
    files_from_cache: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity != ERROR]

    @property
    def ok(self) -> bool:
        """True when the gate passes (no error findings)."""
        return not self.errors


def run_analysis(
    root: Path,
    paths: Optional[Sequence[str]] = None,
    rules: Optional[List[str]] = None,
    jobs: int = 1,
    cache_path: Optional[Path] = None,
) -> AnalysisResult:
    """Run the configured checkers over the tree.

    ``cache_path=None`` (the library default) disables the incremental
    cache entirely; the CLI passes the repo-root cache file.
    """
    root = Path(root).resolve()  # relpaths must be computed against an
    # absolute root or discovery falls back to machine-dependent paths
    checkers = build_checkers(rules)
    project_checkers = build_project_checkers(rules)
    rule_ids = tuple(c.rule_id for c in [*checkers, *project_checkers])
    fingerprint = rules_fingerprint(rule_ids)
    files = discover_files(root, paths)
    cache = AnalysisCache.load(cache_path)
    shas: Dict[str, str] = {}

    index = build_project_index(root, cache, shas) if project_checkers else None

    all_findings: List[Finding] = []
    misses: List[Tuple[Path, str, str]] = []
    for path, rel in files:
        sha = shas.get(rel)
        if sha is None:
            sha = content_sha(path.read_bytes())
            shas[rel] = sha
        cached = cache.get_findings(rel, sha, fingerprint)
        if cached is not None:
            all_findings.extend(cached)
        else:
            misses.append((path, rel, sha))
    if jobs > 1 and len(misses) > 1:
        work = [(str(p), rel, rule_ids) for p, rel, _ in misses]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for (_, rel, sha), result in zip(
                misses, pool.map(_analyze_one, work, chunksize=8)
            ):
                cache.put_findings(rel, sha, fingerprint, result)
                all_findings.extend(result)
    else:
        for path, rel, sha in misses:
            result = analyze_file(path, rel, checkers, rule_ids)
            cache.put_findings(rel, sha, fingerprint, result)
            all_findings.extend(result)

    if index is not None:
        analyzed = {rel for _, rel in files}
        used: Set[Tuple[str, int]] = set()
        for project_checker in project_checkers:
            for finding in project_checker.check_project(index):
                if finding.path not in analyzed:
                    continue
                if index.suppressed(finding.path, finding.line, finding.rule):
                    used.add((finding.path, finding.line))
                    continue
                all_findings.append(finding)
        # The per-file pass reported every suppression it saw cover
        # nothing; withdraw those that covered a whole-program finding.
        all_findings = [
            f for f in all_findings
            if f.rule != "SUP002" or (f.path, f.line) not in used
        ]

    cache.save(keep=set(shas))
    active = sorted(rule_ids) if rules is None else sorted(set(rules))
    return AnalysisResult(
        findings=sort_findings(all_findings),
        files_scanned=len(files),
        rules=active,
        files_reanalyzed=len(misses),
        files_from_cache=len(files) - len(misses),
    )
