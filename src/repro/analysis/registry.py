"""The checker plugin registry.

Rules self-register at import time via the :func:`register_checker` class
decorator, mirroring the experiment registry pattern
(:mod:`repro.experiments.registry`): importing
:mod:`repro.analysis.checkers` populates the registry, and everything else
(the engine, the CLI, ``--list-rules``) resolves rules through it.  Two
rule ids are *engine-owned* (no checker class): the suppression-hygiene
rules SUP001/SUP002, emitted while parsing ``# reprolint:`` comments.
"""

from __future__ import annotations

import inspect
import textwrap
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Type, Union

from .base import Checker
from .findings import ERROR, WARNING
from .project import ProjectChecker

#: rule id -> checker class.  Append-only, id-keyed, populated at import
#: of :mod:`repro.analysis.checkers` — process-global by design, like the
#: experiment registry (exempted from CTX001 inline, with that justification).
_CHECKERS: Dict[str, Type[Checker]] = {}  # reprolint: disable=CTX001 -- The checker plugin registry: append-only, rule-id-keyed, populated at import — process-global by design, like the experiment registry.

#: rule id -> project (whole-program) checker class.  Same lifecycle.
_PROJECT_CHECKERS: Dict[str, Type[ProjectChecker]] = {}  # reprolint: disable=CTX001 -- The whole-program checker registry: append-only, rule-id-keyed, populated at import — same lifecycle as _CHECKERS.

#: Engine-owned rules (emitted by the engine itself, not a checker).
#: Read-only mapping, so CTX001 has nothing to object to.
ENGINE_RULES: Mapping[str, Mapping[str, str]] = MappingProxyType({
    "SYNTAX": {
        "title": "file does not parse — analysis impossible",
        "severity": ERROR,
        "invariant": "every source file is analysable",
        "explain": (
            "Emitted when a file raises SyntaxError under the analysing "
            "interpreter.  No other rule runs on an unparsable file, so the "
            "finding is an error regardless of what the file contains.\n\n"
            "Violating example::\n\n"
            "    def f(:\n        pass\n\n"
            "Sanctioned fix: make the file parse (or move deliberately "
            "broken fixtures under tests/analysis/fixtures/, which the "
            "engine never scans)."
        ),
    },
    "SUP001": {
        "title": "malformed suppression: `# reprolint: disable=RULE -- reason` "
                 "needs known rule ids and a non-empty reason",
        "severity": ERROR,
        "invariant": "every exemption is a deliberate, reviewable decision",
        "explain": (
            "Violating example::\n\n"
            "    t = time.time()  # reprolint: disable=DET001\n\n"
            "Sanctioned fix::\n\n"
            "    t = time.time()  # reprolint: disable=DET001 -- host-side "
            "metrics timer, not on a result path"
        ),
    },
    "SUP002": {
        "title": "unused suppression: the disable comment matches no finding on its line",
        "severity": WARNING,
        "invariant": "exemptions are removed when the code they excused is gone",
        "explain": (
            "A `# reprolint: disable=RULE -- reason` comment whose line no "
            "longer produces a RULE finding is a stale exemption: it hides "
            "nothing today but will silently hide a future regression on "
            "that line.\n\n"
            "Violating example::\n\n"
            "    t = compute()  # reprolint: disable=DET001 -- stale reason\n\n"
            "Sanctioned fix: delete the comment (or narrow it to the rules "
            "that still fire)."
        ),
    },
})


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: add *cls* to the registry under its ``rule_id``."""
    _register(cls, _CHECKERS, _PROJECT_CHECKERS)
    return cls


def register_project_checker(cls: Type[ProjectChecker]) -> Type[ProjectChecker]:
    """Class decorator: register a whole-program rule under its ``rule_id``."""
    _register(cls, _PROJECT_CHECKERS, _CHECKERS)
    return cls


def _register(cls, table, other_table) -> None:
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    existing = table.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"rule {cls.rule_id} already registered by {existing.__name__}"
        )
    if cls.rule_id in ENGINE_RULES or cls.rule_id in other_table:
        raise ValueError(f"rule {cls.rule_id} is already taken")
    table[cls.rule_id] = cls


def _load_builtins() -> None:
    # Importing the package registers every built-in rule (decorator side
    # effect); idempotent.
    from . import checkers  # noqa: F401


def checker_rule_ids() -> List[str]:
    """Ids of all registered per-file checker rules, sorted."""
    _load_builtins()
    return sorted(_CHECKERS)


def project_rule_ids() -> List[str]:
    """Ids of all registered whole-program rules, sorted."""
    _load_builtins()
    return sorted(_PROJECT_CHECKERS)


def all_rule_ids() -> List[str]:
    """Every known rule id — per-file, project and engine-owned — sorted."""
    _load_builtins()
    return sorted(set(_CHECKERS) | set(_PROJECT_CHECKERS) | set(ENGINE_RULES))


def is_known_rule(rule_id: str) -> bool:
    """True for registered checker rules and engine-owned rules."""
    _load_builtins()
    return (
        rule_id in _CHECKERS
        or rule_id in _PROJECT_CHECKERS
        or rule_id in ENGINE_RULES
    )


def get_checker(rule_id: str) -> Checker:
    """Instantiate the per-file checker registered under *rule_id*."""
    _load_builtins()
    try:
        return _CHECKERS[rule_id]()
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}; known: {', '.join(all_rule_ids())}")


def get_project_checker(rule_id: str) -> ProjectChecker:
    """Instantiate the whole-program checker registered under *rule_id*."""
    _load_builtins()
    try:
        return _PROJECT_CHECKERS[rule_id]()
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}; known: {', '.join(all_rule_ids())}")


def build_checkers(rules: Optional[List[str]] = None) -> List[Checker]:
    """Instantiate the selected per-file checkers (default: all), in id order.

    Engine-owned and project ids in *rules* are accepted and skipped here
    (the engine handles them itself); unknown ids raise ``KeyError``.
    """
    _load_builtins()
    selected = checker_rule_ids() if rules is None else rules
    out: List[Checker] = []
    for rule_id in sorted(set(selected)):
        if rule_id in ENGINE_RULES or rule_id in _PROJECT_CHECKERS:
            continue
        out.append(get_checker(rule_id))
    return out


def build_project_checkers(
    rules: Optional[List[str]] = None,
) -> List[ProjectChecker]:
    """Instantiate the selected whole-program checkers (default: all)."""
    _load_builtins()
    selected = project_rule_ids() if rules is None else rules
    out: List[ProjectChecker] = []
    for rule_id in sorted(set(selected)):
        if rule_id in _PROJECT_CHECKERS:
            out.append(get_project_checker(rule_id))
    return out


def rule_descriptions() -> Dict[str, Dict[str, str]]:
    """``rule id -> {title, severity, invariant}`` for every known rule."""
    _load_builtins()
    out: Dict[str, Dict[str, str]] = {}
    for rule_id, cls in {**_CHECKERS, **_PROJECT_CHECKERS}.items():
        out[rule_id] = {
            "title": cls.title,
            "severity": cls.severity,
            "invariant": cls.invariant,
        }
    for rule_id, info in ENGINE_RULES.items():
        out[rule_id] = dict(info)
    return dict(sorted(out.items()))


def explain_rule(rule_id: str) -> str:
    """Human-oriented explanation of a rule for ``--explain RULE``.

    Composes the rule's one-line title, severity, scope, the invariant it
    protects and the checker module's docstring — which by convention
    carries the rationale plus ``Violating example::`` and ``Sanctioned
    fix::`` sections.  Raises ``KeyError`` for unknown rules.
    """
    _load_builtins()
    cls: Union[Type[Checker], Type[ProjectChecker], None] = _CHECKERS.get(
        rule_id
    ) or _PROJECT_CHECKERS.get(rule_id)
    lines: List[str] = []
    if cls is not None:
        instance = cls()
        lines.append(f"{rule_id} [{cls.severity}] — {cls.title}")
        scope = ", ".join(instance.include) or "(everywhere)"
        if instance.exclude:
            scope += f"; except {', '.join(instance.exclude)}"
        kind = "whole-program" if isinstance(instance, ProjectChecker) else "per-file"
        lines.append(f"kind: {kind}    scope: {scope}")
        if cls.invariant:
            lines.append(f"protects: {cls.invariant}")
        if cls.hint:
            lines.append(f"fix: {cls.hint}")
        doc = inspect.getdoc(inspect.getmodule(cls))
        if doc:
            lines.append("")
            lines.append(textwrap.dedent(doc).strip())
        return "\n".join(lines)
    if rule_id in ENGINE_RULES:
        info = ENGINE_RULES[rule_id]
        lines.append(f"{rule_id} [{info['severity']}] — {info['title']}")
        lines.append("kind: engine-owned (emitted while parsing files/suppressions)")
        lines.append(f"protects: {info['invariant']}")
        if "explain" in info:
            lines.append("")
            lines.append(info["explain"])
        return "\n".join(lines)
    raise KeyError(f"unknown rule {rule_id!r}; known: {', '.join(all_rule_ids())}")
