"""CTX002 — library code resolves services through the *active* context.

The process-default :class:`~repro.runtime.RunContext` exists solely as a
compatibility fallback for code that predates the context-scoped runtime:
:func:`repro.runtime.current` falls back to it when nothing is activated.
Library code that reaches for the default *directly* —
``runtime.default_context()``, the ``_process_default`` module slot, or a
registry singleton like ``REGISTRY`` instead of its accessor — pins
itself to process-global state and silently ignores whatever context the
caller activated, reintroducing exactly the cross-run bleed the runtime
refactor removed.

Each singleton has a home where touching it is legitimate (the module
that defines it, plus — for the context machinery — the runtime package
itself and its tests).  Everywhere else must go through
``runtime.current()`` / ``runtime.activate(...)`` or the public accessor
(``get_registry()``).

Violating example::

    from repro import runtime

    def collect_metrics():
        ctx = runtime.default_context()       # CTX002: pins the default
        return ctx.metrics.snapshot()

Sanctioned fix::

    from repro import runtime

    def collect_metrics():
        return runtime.current().metrics.snapshot()
"""

from __future__ import annotations

import ast
from types import MappingProxyType
from typing import Iterator, Mapping, Tuple

from ..base import Checker, ModuleSource, path_in_scope
from ..findings import Finding
from ..registry import register_checker

#: singleton name -> repo-relative prefixes where direct access is its
#: implementation, not a violation.  Read-only mapping (CTX001-clean).
SINGLETONS: Mapping[str, Tuple[str, ...]] = MappingProxyType({
    "default_context": ("src/repro/runtime/",),
    "reset_default_context": ("src/repro/runtime/",),
    "_process_default": ("src/repro/runtime/",),
    "REGISTRY": ("src/repro/experiments/registry.py",),
})


@register_checker
class SingletonAccessChecker(Checker):
    rule_id = "CTX002"
    title = "no direct process-default singleton access from library code"
    hint = (
        "resolve through the active context (repro.runtime.current()) or "
        "the public accessor (e.g. get_registry()) instead of the "
        "process-default singleton"
    )
    invariant = (
        "an activated RunContext is authoritative — library code never "
        "bypasses it to reach process-global fallbacks"
    )
    include = ("src/repro/",)

    def _flag(self, module: ModuleSource, node: ast.AST, name: str) -> Finding:
        return self.finding(
            module, node,
            f"direct access to process-default singleton {name!r}",
            key=name,
        )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        relevant = {
            name: homes
            for name, homes in SINGLETONS.items()
            if not path_in_scope(module.relpath, homes)
        }
        if not relevant:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name in relevant:
                        yield self._flag(module, node, alias.name)
            elif isinstance(node, ast.Attribute) and node.attr in relevant:
                yield self._flag(module, node, node.attr)
            elif isinstance(node, ast.Name) and node.id in relevant:
                # Only flag *uses*, not local defs that happen to share
                # the name (a local `REGISTRY = ...` is CTX001's business).
                if isinstance(node.ctx, ast.Load):
                    yield self._flag(module, node, node.id)
