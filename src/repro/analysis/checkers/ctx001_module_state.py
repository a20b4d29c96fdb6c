"""CTX001 — no module-level mutable state.

The context-scoped runtime moved every ambient service — metrics
registries, the profile collector, the root RNG — onto
:class:`repro.runtime.RunContext`.  This rule keeps it that way:
module-level mutable state is shared by *every* context in the process,
so one concurrent run's writes become another's reads, exactly the
cross-talk the refactor removed.

Run it with ``PYTHONPATH=src python -m repro.analysis`` (``--rules
CTX001`` for this rule alone).  Findings are keyed ``NAME`` for
assignments and ``global:NAME`` for ``global`` statements.  A constant
table is made read-only (``MappingProxyType``, ``frozenset``, a tuple),
which this rule does not flag; state that is process-wide by design
carries an inline ``# reprolint: disable=CTX001 -- <why>`` on the
flagged line.

Flagged (at module top level, or ``global`` anywhere):

* assignments of mutable literals or comprehensions — ``_CACHE = {}``,
  ``_SEEN = set()``, ``RESULTS = []``;
* calls to known-mutable constructors — ``dict()``, ``defaultdict(...)``,
  ``deque()``, ``ContextVar(...)`` — or to constructors whose name ends
  in ``Registry`` / ``Cache`` / ``Collector`` / ``Stack``;
* ``global`` statements (module-level rebinding from function scope).

``__all__`` is always allowed.

Violating example::

    _CACHE = {}                               # CTX001: module-level dict

    def solve(problem):
        if problem.key not in _CACHE:
            _CACHE[problem.key] = _expensive(problem)
        return _CACHE[problem.key]

Sanctioned fix::

    class Solver:
        def __init__(self):
            self._cache = {}                  # state owned by an instance

        def solve(self, problem):
            if problem.key not in self._cache:
                self._cache[problem.key] = _expensive(problem)
            return self._cache[problem.key]
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..base import Checker, ModuleSource
from ..findings import Finding
from ..registry import register_checker

#: Constructors that always produce mutable objects.
MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray",
    "defaultdict", "deque", "Counter", "OrderedDict",
    "ContextVar",
})

#: Callee-name suffixes that mark service/registry-object construction.
MUTABLE_SUFFIXES = ("Registry", "Cache", "Collector", "Stack")

#: Names allowed in every module.
ALWAYS_ALLOWED = frozenset({"__all__"})


def _callee_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set,
                          ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = _callee_name(value)
        return name in MUTABLE_CONSTRUCTORS or name.endswith(MUTABLE_SUFFIXES)
    return False


def _assigned_names(node: ast.stmt) -> List[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


@register_checker
class ModuleStateChecker(Checker):
    rule_id = "CTX001"
    title = "no module-level mutable state; services live on the RunContext"
    hint = (
        "move the state onto repro.runtime.RunContext, make a constant "
        "table read-only (MappingProxyType, frozenset, tuple), or add "
        "`# reprolint: disable=CTX001 -- <why>` to the line"
    )
    invariant = (
        "zero cross-talk between concurrently active RunContexts (two runs "
        "with opposite modes/seeds share no mutable module state)"
    )
    include = ("src/repro/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.tree.body:
            value = getattr(node, "value", None)
            if value is None or not _is_mutable_value(value):
                continue
            for name in _assigned_names(node):
                if name in ALWAYS_ALLOWED:
                    continue
                yield self.finding(
                    module, node,
                    f"module-level mutable state {name!r}",
                    key=name,
                )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                for name in node.names:
                    yield self.finding(
                        module, node,
                        f"'global {name}' rebinds module state from "
                        "function scope",
                        key=f"global:{name}",
                    )
