"""Project-rule plumbing: the whole-program counterpart of ``Checker``.

Per-file rules (:class:`repro.analysis.base.Checker`) see one
:class:`~repro.analysis.base.ModuleSource` at a time.  Project rules see
the linked :class:`~repro.analysis.callgraph.ProjectIndex` — every
module summary and the approximate call graph — and
reason about properties no single file exhibits: call chains that reach
a nondeterminism sink (DET004), RNG streams whose seed lineage crosses
files (SEED001), what a spawn boundary can reach (PKL001), and twin
scalar/batch API surfaces kept in lock-step (PAR001).

Project rules still emit ordinary :class:`~repro.analysis.findings.Finding`
objects anchored at a concrete file/line, so inline suppressions and
every report format work unchanged.  Inline suppressions are honoured
through the index (the engine consults :meth:`ProjectIndex.suppressed` —
summaries record suppression lines, so even a cache-hit file keeps its
exemptions), and one that covered no finding of any rule it names, in
either pass, is reported stale (SUP002).

Two contracts keep incremental analysis exact:

* ``check_project`` must be a pure function of the index — no filesystem
  access, no ordering dependence beyond the index's sorted traversals;
* findings are *global* facts filtered to the requested path set by the
  engine, so analysing a subset of files yields exactly the slice of a
  full run (the property ``tests/analysis/test_incremental.py`` pins).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .base import path_in_scope
from .callgraph import ProjectIndex
from .findings import ERROR, Finding


class ProjectChecker:
    """Base class for whole-program reprolint rules.

    Subclasses set the same metadata attributes as per-file checkers and
    implement :meth:`check_project` over a :class:`ProjectIndex`.
    ``include``/``exclude`` scope where findings may be *anchored* — the
    rule still sees the whole index (a chain may pass through an
    out-of-scope module), but it must not report into excluded paths.
    """

    rule_id: str = ""
    title: str = ""
    severity: str = ERROR
    hint: str = ""
    invariant: str = ""
    include: Tuple[str, ...] = ("src/repro/",)
    exclude: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """True when this rule may anchor findings at *relpath*."""
        return path_in_scope(relpath, self.include, self.exclude)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Yield findings over the linked project.  Must be side-effect free."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self,
        relpath: str,
        line: int,
        message: str,
        key: str,
        *,
        col: int = 0,
        severity: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored at (*relpath*, *line*)."""
        return Finding(
            rule=self.rule_id,
            severity=severity if severity is not None else self.severity,
            path=relpath,
            line=line,
            col=col,
            message=message,
            key=key,
            hint=hint if hint is not None else self.hint,
        )
