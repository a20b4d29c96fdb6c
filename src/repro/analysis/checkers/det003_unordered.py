"""DET003 — no unordered iteration on result paths.

Python ``set``/``frozenset`` iteration order depends on element hashes —
for ``str`` keys it varies per process (hash randomisation), for objects
it follows ``id()``, i.e. allocation order.  Any simulation result built
by walking a set can differ between the serial and parallel harness, or
between a fresh run and a checkpoint resume, defeating the differential
gates.  Filesystem enumeration (``os.listdir``/``os.scandir``/
``glob.glob``/``Path.iterdir``) is OS-order and must be wrapped in
``sorted()``.  ``id()`` as a sort key bakes allocation order into output.

Flagged (in ``src/repro/`` result paths):

* ``for``-loops and comprehensions iterating a set expression — a set
  literal/comprehension, a ``set(...)``/``frozenset(...)`` call, a set
  union/intersection/difference, or a local name assigned one of those in
  the same scope;
* ``os.listdir``/``os.scandir``/``glob.glob``/``glob.iglob`` calls not
  directly wrapped in ``sorted(...)``;
* ``key=id`` passed to ``sorted``/``min``/``max``.

``dict`` iteration is insertion-ordered and stays out of scope: whether
insertion order is deterministic is a dataflow property this rule cannot
see, and flagging every ``dict.values()`` would drown the signal.

Violating example::

    def failed_nodes(self):
        return [n.name for n in self._failed]   # DET003: set iteration

Sanctioned fix::

    def failed_nodes(self):
        return [n.name for n in sorted(self._failed, key=lambda n: n.name)]
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Union

from ..base import Checker, ModuleSource
from ..findings import Finding
from ..registry import register_checker

_SET_CALLS = frozenset({"set", "frozenset"})
_FS_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Builtins whose result does not depend on iteration order — a
#: comprehension feeding one of these directly is safe (``sorted(x for x
#: in the_set)`` is the *fix* this rule recommends, not a violation).
_ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset",
})

_Scope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


def _direct_set_expr(node: ast.expr) -> bool:
    """True when *node* is syntactically a set (no name tracking)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_CALLS
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _direct_set_expr(node.left) or _direct_set_expr(node.right)
    return False


class _ScopeWalk(ast.NodeVisitor):
    """Per-scope walk tracking names bound to set expressions."""

    def __init__(self, checker: "UnorderedIterationChecker",
                 module: ModuleSource) -> None:
        self.checker = checker
        self.module = module
        self.findings: List[Finding] = []
        #: names currently known to hold a set, per enclosing scope.
        self.set_names: List[Set[str]] = [set()]
        #: child -> parent AST map (for the sorted()-wrapper test).
        self.parents: Dict[ast.AST, ast.AST] = {}

    # -- scope management ----------------------------------------------
    def _walk_scope(self, node: _Scope) -> None:
        self.set_names.append(set())
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.set_names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._walk_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._walk_scope(node)

    # -- name tracking -------------------------------------------------
    def _is_set_expr(self, node: ast.expr) -> bool:
        if _direct_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in names for names in self.set_names)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._is_set_expr(node.value):
                    self.set_names[-1].add(target.id)
                else:
                    self.set_names[-1].discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if self._is_set_expr(node.value):
                self.set_names[-1].add(node.target.id)
            else:
                self.set_names[-1].discard(node.target.id)
        self.generic_visit(node)

    # -- iteration sites -----------------------------------------------
    def _order_insensitive(self, comp: ast.expr) -> bool:
        """True when *comp* (a comprehension) directly feeds a consumer
        whose result is independent of iteration order."""
        parent = self.parents.get(comp)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE_CONSUMERS
            and bool(parent.args)
            and parent.args[0] is comp
        )

    def _check_iter(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            label = (
                f"local set {iter_node.id!r}" if isinstance(iter_node, ast.Name)
                else "a set expression"
            )
            self.findings.append(self.checker.finding(
                self.module, iter_node,
                f"iteration over {label} — order follows element hashes, "
                "not program logic",
                key="set-iteration",
            ))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr) -> None:
        if not self._order_insensitive(node):
            for gen in node.generators:  # type: ignore[attr-defined]
                self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- calls: filesystem order and key=id ----------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.module.imports.resolve_call(node)
        if resolved in _FS_CALLS:
            if not self._wrapped_in_sorted(node):
                self.findings.append(self.checker.finding(
                    self.module, node,
                    f"{resolved}() returns OS-ordered entries — wrap the "
                    "call in sorted(...)",
                    key=resolved,
                ))
        if isinstance(node.func, ast.Name) and node.func.id in (
            "sorted", "min", "max"
        ):
            for kw in node.keywords:
                if (kw.arg == "key" and isinstance(kw.value, ast.Name)
                        and kw.value.id == "id"):
                    self.findings.append(self.checker.finding(
                        self.module, node,
                        f"{node.func.id}(..., key=id) orders by allocation "
                        "address — not reproducible across runs",
                        key=f"{node.func.id}:key-id",
                    ))
        self.generic_visit(node)

    def _wrapped_in_sorted(self, call: ast.Call) -> bool:
        parent = self.parents.get(call)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
            and bool(parent.args)
            and parent.args[0] is call
        )


@register_checker
class UnorderedIterationChecker(Checker):
    rule_id = "DET003"
    title = "no set iteration, OS-ordered listings, or id()-keyed sorting on result paths"
    hint = (
        "iterate sorted(the_set) (with a deterministic key for objects), "
        "wrap os.listdir/glob in sorted(...), and never sort by id()"
    )
    invariant = (
        "serial, parallel and resumed campaigns aggregate identical results "
        "(the differential-equivalence and golden-campaign gates)"
    )
    include = ("src/repro/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        walker = _ScopeWalk(self, module)
        walker.parents = {
            child: parent
            for parent in ast.walk(module.tree)
            for child in ast.iter_child_nodes(parent)
        }
        walker.visit(module.tree)
        yield from walker.findings
