"""Checker plumbing: per-module source bundle, import resolution, base class.

Checkers are small AST walkers.  The engine parses each file once into a
:class:`ModuleSource` and hands it to every checker whose path scope
matches; checkers yield :class:`~repro.analysis.findings.Finding` objects
and never mutate shared state, so per-file analysis parallelises freely.

The :class:`ImportMap` gives checkers *resolved* dotted names for call
targets: ``from time import perf_counter as pc`` followed by ``pc()``
resolves to ``time.perf_counter``, ``np.random.default_rng`` resolves to
``numpy.random.default_rng``.  Resolution is purely lexical (module-level
and function-level imports, no dataflow), which is exactly the right
fidelity for lint rules: a deliberately obfuscated call site is a code
smell the reviewer will catch.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .findings import ERROR, Finding


class ImportMap:
    """Alias table built from a module's ``import`` statements."""

    def __init__(self, tree: ast.Module) -> None:
        self._aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    full = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self._aliases[local] = full
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Resolved dotted name of a ``Name``/``Attribute`` chain, or None.

        Returns None when the chain does not start at an imported name
        (e.g. ``self.rng.normal`` — a local object, not a module path).
        """
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self._aliases.get(node.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """Resolved dotted name of a call's target, or None."""
        return self.resolve(call.func)


class ModuleSource:
    """One parsed source file as seen by the checkers.

    ``relpath`` is repo-relative POSIX — the identity used in findings
    and path-scope matching.
    """

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self._imports: Optional[ImportMap] = None

    @property
    def imports(self) -> ImportMap:
        """The module's import alias table (built on first use)."""
        if self._imports is None:
            self._imports = ImportMap(self.tree)
        return self._imports

    @classmethod
    def parse(cls, path: Path, relpath: str) -> "ModuleSource":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=relpath)
        return cls(path, relpath, source, tree)


def path_in_scope(
    relpath: str,
    include: Sequence[str],
    exclude: Sequence[str] = (),
) -> bool:
    """Prefix-scope test over repo-relative POSIX paths.

    A prefix ending in ``/`` matches a directory subtree; otherwise it must
    match a whole path exactly (single-file scopes like
    ``src/repro/runtime/config.py``).
    """

    def matches(prefix: str) -> bool:
        if prefix.endswith("/"):
            return relpath.startswith(prefix)
        return relpath == prefix or relpath.startswith(prefix + "/")

    return any(matches(p) for p in include) and not any(matches(p) for p in exclude)


class Checker:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``include``/``exclude`` are repo-relative path prefixes defining where
    the rule applies (see :func:`path_in_scope`); ``invariant`` names the
    repo property the rule protects and feeds the documentation.
    """

    rule_id: str = ""
    title: str = ""
    severity: str = ERROR
    hint: str = ""
    invariant: str = ""
    include: Tuple[str, ...] = ("src/repro/",)
    exclude: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """True when this rule is in scope for *relpath*."""
        return path_in_scope(relpath, self.include, self.exclude)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield findings for *module*.  Must be side-effect free."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self,
        module: ModuleSource,
        node: ast.AST,
        message: str,
        key: str,
        *,
        severity: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored at *node*."""
        return Finding(
            rule=self.rule_id,
            severity=severity if severity is not None else self.severity,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            key=key,
            hint=hint if hint is not None else self.hint,
        )
