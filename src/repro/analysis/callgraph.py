"""Whole-program facts: per-module summaries and the call graph.

Per-file linting (PR 5) sees one AST at a time; the invariants PRs 6–9
added are *cross-module* — RNG lineage flows through ``derive_seed``
call chains, picklability is a property of what a spawn boundary can
reach, and the scalar/batch twin paths live in different files.  This
module extracts everything those rules need into a compact,
JSON-serialisable :class:`ModuleSummary` per file, and links the
summaries into a :class:`ProjectIndex`:

* an approximate **call graph**: lexically resolved call targets
  (imported names — relative imports resolved against the package
  layout — module-level functions, ``self.method()`` within a class),
  with re-exports through ``__init__.py`` chased at link time;
* per-function **fact lists** — nondeterminism sinks, RNG
  constructions with seed-lineage classification, nested
  callables/closures, and per-argument shapes at call sites — the raw
  material of DET004/SEED001/PKL001/PAR001.

Resolution is deliberately lexical (no dataflow through containers or
attributes of arbitrary objects): a call the extractor cannot resolve
is a call the rules stay silent about, which is the right fidelity for
lint — an obfuscated call site is a code smell the reviewer catches.

Summaries carry :data:`SUMMARY_VERSION` and round-trip through plain
dicts, so the incremental cache (:mod:`repro.analysis.cache`) can store
them keyed by content hash: a warm run rebuilds the whole project index
without parsing a single unchanged file.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .nondet import is_rng_constructor, sink_kind

#: Bump when the summary shape or extraction semantics change: a cache
#: written by an older extractor is invalidated wholesale.
SUMMARY_VERSION = 2

#: The pseudo-function holding module-level (import-time) statements.
MODULE_BODY = "<module>"


# ----------------------------------------------------------------------
# Name resolution (absolute + relative imports, local definitions)
# ----------------------------------------------------------------------
def module_name_for(relpath: str) -> Optional[str]:
    """Dotted module name of a repo-relative source path, or None.

    ``src/repro/harness/seeds.py`` → ``repro.harness.seeds``;
    ``src/repro/obs/__init__.py`` → ``repro.obs``.  Paths outside
    ``src/`` have no importable name and return None.
    """
    if not relpath.startswith("src/") or not relpath.endswith(".py"):
        return None
    parts = relpath[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or not all(p.isidentifier() for p in parts):
        return None
    return ".".join(parts)


class _Scope:
    """Lexical alias table for one module: imports plus local definitions.

    Extends the per-file :class:`repro.analysis.base.ImportMap` with the
    two resolutions whole-program analysis needs: *relative* imports
    (``from ..base import Checker`` resolved against the module's own
    package) and *local* module-level ``def``/``class`` names (so a call
    to a sibling function becomes an edge, not a blind spot).
    """

    def __init__(self, module: str, is_package: bool, tree: ast.Module) -> None:
        self.module = module
        #: local name -> dotted target (import aliases, absolute form)
        self.aliases: Dict[str, str] = {}
        #: module-level def/class name -> qualified name
        self.local_defs: Dict[str, str] = {}
        #: module-level assigned names (constants; SEED001 lineage check)
        self.module_names: Set[str] = set()
        base = module.split(".") if is_package else module.split(".")[:-1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    full = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.aliases[local] = full
            elif isinstance(node, ast.ImportFrom):
                target = self._import_from_base(node, base)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{target}.{alias.name}"
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.local_defs[stmt.name] = f"{module}.{stmt.name}"
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.module_names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self.module_names.add(stmt.target.id)

    @staticmethod
    def _import_from_base(node: ast.ImportFrom, base: List[str]) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative: level 1 is the containing package, each extra level
        # strips one component.  Beyond the top of the package → None.
        if node.level - 1 > len(base):
            return None
        anchor = base[: len(base) - (node.level - 1)]
        parts = anchor + (node.module.split(".") if node.module else [])
        return ".".join(parts) if parts else None

    def resolve(self, node: ast.expr, class_name: Optional[str] = None) -> Optional[str]:
        """Dotted target of a ``Name``/``Attribute`` chain, or None.

        ``self.method`` / ``cls.method`` resolve into *class_name* when
        given — the one-step heuristic that links intra-class calls.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        if node.id in ("self", "cls") and class_name is not None and len(parts) == 1:
            return f"{self.module}.{class_name}.{parts[0]}"
        head = self.aliases.get(node.id) or self.local_defs.get(node.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Per-function facts
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FunctionFacts:
    """Everything the project rules need to know about one function.

    ``name`` is the in-module suffix (``f``, ``Class.m`` or
    ``<module>``); the qualified name is ``{module}.{name}``.  All lists
    are in source order, so linked results are deterministic.
    """

    name: str
    line: int = 1
    #: signature shape (PAR001): see :func:`_signature_of`.
    signature: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: resolved call sites: {target, line, args: [argkind], kwargs: {name: argkind}}
    calls: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: direct nondeterminism sinks: {sink, line, kind}
    sinks: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: RNG constructions: {target, line, seed, bind} — seed lineage class
    rngs: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: nested callables: {kind, name, line, captures_rng: [names]}
    closures: List[Dict[str, Any]] = dataclasses.field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionFacts":
        return cls(**data)


@dataclasses.dataclass
class ModuleSummary:
    """The cached whole-program facts of one source file."""

    relpath: str
    module: Optional[str]
    #: module-level re-export table: local name -> dotted target
    exports: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: function suffix -> facts
    functions: Dict[str, Dict[str, Any]] = dataclasses.field(default_factory=dict)
    #: line -> rule ids with a valid inline suppression on that line
    suppressed: Dict[str, List[str]] = dataclasses.field(default_factory=dict)

    def facts(self) -> Iterator[FunctionFacts]:
        for data in self.functions.values():
            yield FunctionFacts.from_dict(data)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModuleSummary":
        return cls(**data)


def _signature_of(node: ast.FunctionDef) -> Dict[str, Any]:
    """Signature shape compared by PAR001 (names/kinds/default counts)."""
    args = node.args
    return {
        "posonly": [a.arg for a in args.posonlyargs],
        "args": [a.arg for a in args.args],
        "vararg": args.vararg.arg if args.vararg else None,
        "kwonly": [a.arg for a in args.kwonlyargs],
        "kwarg": args.kwarg.arg if args.kwarg else None,
        "defaults": len(args.defaults),
        "kwdefaults": [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ],
    }


def _free_names(node: ast.AST) -> Set[str]:
    """Names a nested callable reads but does not bind (approximate)."""
    bound: Set[str] = set()
    loaded: Set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            bound.add(a.arg)
        for a in (args.vararg, args.kwarg):
            if a is not None:
                bound.add(a.arg)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, ast.Load):
                loaded.add(sub.id)
            else:
                bound.add(sub.id)
    return loaded - bound


class _FunctionExtractor:
    """Collects the facts of one top-level function (nested defs included).

    Calls, sinks and RNG constructions inside nested functions and
    lambdas are attributed to the *enclosing* top-level function — a
    nested helper that reads the clock taints its owner — while the
    nested callables themselves are recorded as closures for the
    spawn-boundary rules.
    """

    def __init__(
        self, scope: _Scope, facts: FunctionFacts, class_name: Optional[str]
    ) -> None:
        self.scope = scope
        self.facts = facts
        self.class_name = class_name
        #: trusted parameter names (outer function plus any nested level)
        self.params: Set[str] = set()
        #: local name -> kind ("lambda" | "localdef" | "open" | "rng" | "seed")
        self.bindings: Dict[str, str] = {}
        self._nested: List[ast.AST] = []

    # -- seed-lineage classification -----------------------------------
    def _classify_seed(self, expr: Optional[ast.expr]) -> str:
        """Lineage class of an RNG constructor's seed expression.

        ``sanctioned`` — contains a ``derive_seed`` call or reads the
        context root RNG/seed; ``derived`` — built from parameters,
        attributes or locals (the caller supplies lineage);
        ``literal`` — a bare constant; ``global:<name>`` — a
        module-level or imported constant (a hidden fixed stream).
        """
        if expr is None:
            return "unseeded"
        has_const = has_trusted = False
        global_name: Optional[str] = None
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                target = self.scope.resolve(node.func, self.class_name)
                if (target and target.rsplit(".", 1)[-1] == "derive_seed") or (
                    isinstance(node.func, ast.Name) and node.func.id == "derive_seed"
                ):
                    return "sanctioned"
            elif isinstance(node, ast.Attribute):
                if node.attr in ("root_seed", "rng", "root_rng"):
                    return "sanctioned"
        for node in ast.walk(expr):
            if isinstance(node, ast.Constant):
                has_const = True
            elif isinstance(node, ast.Attribute):
                has_trusted = True  # lineage established where the attr was set
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self.params or self.bindings.get(node.id) == "seed":
                    has_trusted = True
                elif (
                    node.id in self.scope.aliases
                    or node.id in self.scope.local_defs
                    or node.id in self.scope.module_names
                ):
                    global_name = node.id
                else:
                    has_trusted = True  # local computation; trusted (lexical limit)
        if has_trusted:
            return "derived"
        if global_name is not None:
            return f"global:{global_name}"
        if has_const:
            return "literal"
        return "derived"

    # -- argument shapes at call sites ---------------------------------
    def _argkind(self, node: ast.expr) -> Dict[str, Any]:
        kind: Dict[str, Any] = {"line": getattr(node, "lineno", 0)}
        if isinstance(node, ast.Lambda):
            kind["kind"] = "lambda"
        elif isinstance(node, ast.GeneratorExp):
            kind["kind"] = "genexpr"
        elif isinstance(node, ast.Call):
            target = self.scope.resolve(node.func, self.class_name)
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                kind["kind"] = "open"
            else:
                kind.update(kind="call", target=target)
        elif isinstance(node, ast.Name):
            bound = self.bindings.get(node.id)
            if bound in ("lambda", "localdef", "open"):
                kind.update(kind=bound, name=node.id)
            elif node.id in self.scope.local_defs:
                kind.update(kind="ref", target=self.scope.local_defs[node.id])
            elif node.id in self.scope.aliases:
                kind.update(kind="ref", target=self.scope.aliases[node.id])
            else:
                kind.update(kind="name", name=node.id)
        elif isinstance(node, ast.Constant):
            kind["kind"] = "const"
        else:
            kind["kind"] = "other"
        return kind

    # -- the walk ------------------------------------------------------
    def extract(self, body: Sequence[ast.stmt], params: Set[str]) -> None:
        self.params = set(params)
        for stmt in body:
            self._visit(stmt)
        # Closure captures are judged against the final binding map, so a
        # helper defined before the RNG it captures is still caught.
        for node in self._nested:
            rng_captures = sorted(
                name for name in _free_names(node)
                if self.bindings.get(name) == "rng"
            )
            self.facts.closures.append({
                "kind": "lambda" if isinstance(node, ast.Lambda) else "localdef",
                "name": getattr(node, "name", "<lambda>"),
                "line": node.lineno,
                "captures_rng": rng_captures,
            })

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.bindings[node.name] = "localdef"
            self._nested.append(node)
            inner = {
                a.arg for a in (
                    *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs
                )
            }
            self.params |= inner
            for stmt in node.body:
                self._visit(stmt)
            return
        if isinstance(node, ast.Lambda):
            self._nested.append(node)
            self._visit(node.body)
            return
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            self._bind(node.targets[0].id, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None and isinstance(
            node.target, ast.Name
        ):
            self._bind(node.target.id, node.value)
        if isinstance(node, ast.Call):
            self._record_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _bind(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Lambda):
            self.bindings[name] = "lambda"
            return
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name) and value.func.id == "open":
                self.bindings[name] = "open"
                return
            target = self.scope.resolve(value.func, self.class_name)
            if target is not None:
                if is_rng_constructor(target):
                    self.bindings[name] = "rng"
                    return
                if target.rsplit(".", 1)[-1] == "derive_seed":
                    self.bindings[name] = "seed"
                    return
        self.bindings.pop(name, None)

    def _record_call(self, node: ast.Call) -> None:
        target = self.scope.resolve(node.func, self.class_name)
        if target is None:
            return
        kind = sink_kind(target, node)
        if kind is not None:
            self.facts.sinks.append(
                {"sink": target, "line": node.lineno, "kind": kind}
            )
        if is_rng_constructor(target):
            seed_expr: Optional[ast.expr] = None
            if node.args:
                seed_expr = node.args[0]
            else:
                seed_expr = next(
                    (k.value for k in node.keywords if k.arg == "seed"), None
                )
            self.facts.rngs.append({
                "target": target,
                "line": node.lineno,
                "seed": self._classify_seed(seed_expr),
            })
        self.facts.calls.append({
            "target": target,
            "line": node.lineno,
            "args": [self._argkind(a) for a in node.args],
            "kwargs": {
                k.arg: self._argkind(k.value)
                for k in node.keywords if k.arg is not None
            },
        })


# ----------------------------------------------------------------------
# Module extraction
# ----------------------------------------------------------------------
def extract_summary(relpath: str, source: str, tree: ast.Module) -> ModuleSummary:
    """Build the :class:`ModuleSummary` of one parsed file."""
    module = module_name_for(relpath)
    summary = ModuleSummary(relpath=relpath, module=module)
    if module is None:
        return summary
    is_package = relpath.endswith("/__init__.py")
    scope = _Scope(module, is_package, tree)
    summary.exports = dict(sorted(scope.aliases.items()))

    def extract_into(
        name: str, line: int, node: Optional[ast.FunctionDef],
        body: Sequence[ast.stmt], class_name: Optional[str],
    ) -> None:
        facts = FunctionFacts(name=name, line=line)
        if node is not None:
            facts.signature = _signature_of(node)
        extractor = _FunctionExtractor(scope, facts, class_name)
        params = set()
        if node is not None:
            args = node.args
            params = {
                a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            }
            for a in (args.vararg, args.kwarg):
                if a is not None:
                    params.add(a.arg)
        extractor.extract(body, params)
        summary.functions[name] = facts.to_dict()

    module_body: List[ast.stmt] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_into(stmt.name, stmt.lineno, stmt, stmt.body, None)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extract_into(
                        f"{stmt.name}.{item.name}", item.lineno,
                        item, item.body, stmt.name,
                    )
                else:
                    module_body.append(item)
        else:
            module_body.append(stmt)
    if module_body:
        extract_into(MODULE_BODY, module_body[0].lineno, None, module_body, None)

    from .suppressions import parse_suppressions  # local: avoids import cycle

    suppressions, _problems = parse_suppressions(source, relpath)
    for sup in suppressions:
        bucket = summary.suppressed.setdefault(str(sup.line), [])
        for rule in sup.rules:
            if rule not in bucket:
                bucket.append(rule)
    return summary


# ----------------------------------------------------------------------
# The linked index
# ----------------------------------------------------------------------
class ProjectIndex:
    """Linked whole-program view over the per-module summaries.

    Construction indexes every function by qualified name and keeps the
    export tables for re-export chasing.  All traversals are over
    sorted structures, so rule output is machine-independent.
    """

    #: Re-export chains longer than this are cycles; resolution stops.
    _MAX_CHASE = 16

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries: Dict[str, ModuleSummary] = {
            s.relpath: s for s in sorted(summaries, key=lambda s: s.relpath)
        }
        self.by_module: Dict[str, ModuleSummary] = {
            s.module: s for s in self.summaries.values() if s.module
        }
        self._functions: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for s in self.summaries.values():
            if s.module is None:
                continue
            for suffix, facts in s.functions.items():
                self._functions[f"{s.module}.{suffix}"] = (s.relpath, facts)
        self._known: Set[str] = set(self.by_module)

    @staticmethod
    def _longest_known_prefix(dotted: str, known: Set[str]) -> Optional[str]:
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            prefix = ".".join(parts[:end])
            if prefix in known:
                return prefix
        return None

    # -- function lookup ----------------------------------------------
    def functions(self) -> Iterator[Tuple[str, str, FunctionFacts]]:
        """``(qualname, relpath, facts)`` for every function, sorted."""
        for qualname in sorted(self._functions):
            relpath, data = self._functions[qualname]
            yield qualname, relpath, FunctionFacts.from_dict(data)

    def lookup(self, qualname: str) -> Optional[Tuple[str, FunctionFacts]]:
        """Find a function by qualified name, chasing re-exports.

        ``repro.analysis.Checker.check`` resolves through
        ``repro.analysis.__init__``'s ``from .base import Checker`` to
        ``repro.analysis.base.Checker.check``.  Cycles and unknown names
        return None.
        """
        name = self.resolve(qualname)
        if name is None:
            return None
        relpath, data = self._functions[name]
        return relpath, FunctionFacts.from_dict(data)

    def canonical(self, qualname: str) -> str:
        """The defining-module name behind *qualname*, chasing re-exports.

        Pure name rewriting: works for classes and constants as well as
        functions (``repro.harness.SupervisorConfig`` →
        ``repro.harness.supervisor.SupervisorConfig``).  Chains longer
        than :data:`_MAX_CHASE` (an import cycle) stop where they are.
        """
        current = qualname
        for _ in range(self._MAX_CHASE):
            prefix = self._longest_known_prefix(current, self._known)
            if prefix is None or len(current) <= len(prefix):
                return current
            rest = current[len(prefix) + 1:].split(".")
            exports = self.by_module[prefix].exports
            if rest[0] not in exports:
                return current
            nxt = ".".join([exports[rest[0]], *rest[1:]])
            if nxt == current:
                return current
            current = nxt
        return current

    def resolve(self, qualname: str) -> Optional[str]:
        """Canonical *defined function* behind *qualname*, or None."""
        if qualname in self._functions:
            return qualname
        name = self.canonical(qualname)
        return name if name in self._functions else None

    # -- edges ---------------------------------------------------------
    def call_edges(self, facts: FunctionFacts) -> Iterator[Tuple[str, int]]:
        """Resolved ``(callee_qualname, line)`` pairs of one function."""
        for call in facts.calls:
            target = call.get("target")
            if target is None:
                continue
            resolved = self.resolve(target)
            if resolved is not None:
                yield resolved, call["line"]

    # -- suppressions --------------------------------------------------
    def suppressed(self, relpath: str, line: int, rule: str) -> bool:
        """True when an inline suppression covers (*relpath*, *line*, *rule*)."""
        summary = self.summaries.get(relpath)
        if summary is None:
            return False
        return rule in summary.suppressed.get(str(line), ())
