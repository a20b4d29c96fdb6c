"""The incremental-analysis cache: per-file results keyed by content hash.

Full-tree reprolint used to pay for every file on every run; with the
whole-program layer (parse, summarise, link) on the CI critical path the
engine now caches **per-file findings** and **per-file project
summaries** keyed by the SHA-256 of the file's *content* — never mtimes,
so a ``touch`` changes nothing and a checkout with fresh timestamps
still hits.  A warm run re-analyses only files whose bytes changed; the
whole-program propagation (cheap graph work over the summaries) reruns
every time, which is what makes incremental findings bit-identical to a
cold run.

Invalidation is deliberately coarse where correctness demands it:

* the cache carries a **salt** combining the cache format version, the
  summary extractor version and :data:`CHECKERS_VERSION` (bumped when
  any rule's semantics change) — a mismatch drops the cache wholesale;
* cached findings are additionally keyed by the **rule fingerprint** of
  the run (sorted rule ids), so ``--rules DET001`` and a full run never
  serve each other's results;
* entries for files that vanished are pruned on save.

The cache file (default ``.reprolint-cache.json`` at the repo root) is
a plain-JSON private artifact: gitignored, safe to delete at any time,
written atomically (temp file + rename) so a crashed run never leaves a
torn cache behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from .callgraph import SUMMARY_VERSION, ModuleSummary
from .findings import Finding

CACHE_VERSION = 1

#: Bump when any checker's semantics change: cached findings produced by
#: older rules must not survive into a run with the new ones.
CHECKERS_VERSION = 2

#: Default location, relative to the repo root (gitignored).
DEFAULT_CACHE_PATH = ".reprolint-cache.json"


def content_sha(data: bytes) -> str:
    """SHA-256 hex digest of file content — the only cache key for files."""
    return hashlib.sha256(data).hexdigest()


def rules_fingerprint(rule_ids: "list[str] | tuple[str, ...]") -> str:
    """Stable fingerprint of the rule set a findings entry was made under."""
    return ",".join(sorted(set(rule_ids)))


def _salt() -> str:
    return f"v{CACHE_VERSION}/summary{SUMMARY_VERSION}/checkers{CHECKERS_VERSION}"


class AnalysisCache:
    """Per-file findings and summaries, keyed by content hash.

    A ``path=None`` cache is a valid always-miss cache that never writes
    — the engine uses it when caching is disabled, so there is a single
    code path.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = path
        self._files: Dict[str, Dict[str, Any]] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Optional[Path]) -> "AnalysisCache":
        """Load the cache at *path*; missing/corrupt/stale files start empty."""
        cache = cls(path)
        if path is None or not path.exists():
            return cache
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return cache
        if not isinstance(data, dict) or data.get("salt") != _salt():
            return cache
        files = data.get("files")
        if isinstance(files, dict):
            cache._files = files
        return cache

    def save(self, keep: Optional["set[str]"] = None) -> None:
        """Atomically persist the cache, pruning entries not in *keep*."""
        if self.path is None or not self._dirty:
            return
        if keep is not None:
            self._files = {r: e for r, e in self._files.items() if r in keep}
        payload = {"salt": _salt(), "files": self._files}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def get_findings(
        self, relpath: str, sha: str, rules_fp: str
    ) -> Optional[List[Finding]]:
        entry = self._files.get(relpath)
        if (
            entry is None
            or entry.get("sha") != sha
            or entry.get("rules_fp") != rules_fp
            or "findings" not in entry
        ):
            self.misses += 1
            return None
        try:
            found = [Finding.from_dict(raw) for raw in entry["findings"]]
        except (TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return found

    def put_findings(
        self, relpath: str, sha: str, rules_fp: str, findings: List[Finding]
    ) -> None:
        entry = self._entry(relpath, sha)
        entry["rules_fp"] = rules_fp
        entry["findings"] = [f.to_dict() for f in findings]
        self._dirty = True

    # ------------------------------------------------------------------
    # Project summaries
    # ------------------------------------------------------------------
    def get_summary(self, relpath: str, sha: str) -> Optional[ModuleSummary]:
        entry = self._files.get(relpath)
        if entry is None or entry.get("sha") != sha or "summary" not in entry:
            return None
        try:
            return ModuleSummary.from_dict(entry["summary"])
        except (TypeError, ValueError):
            return None

    def put_summary(self, relpath: str, sha: str, summary: ModuleSummary) -> None:
        entry = self._entry(relpath, sha)
        entry["summary"] = summary.to_dict()
        self._dirty = True

    # ------------------------------------------------------------------
    def _entry(self, relpath: str, sha: str) -> Dict[str, Any]:
        entry = self._files.get(relpath)
        if entry is None or entry.get("sha") != sha:
            # Content changed: every derived artifact of the old bytes dies.
            entry = {"sha": sha}
            self._files[relpath] = entry
        return entry
