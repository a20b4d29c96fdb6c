"""PKL001 — everything crossing a spawn boundary must be picklable.

With ``workers >= 1`` a campaign runs on shard runner processes
(:mod:`repro.harness.shards`), the harness's only process-parallel path.
Every callable and payload reachable through
:class:`repro.harness.supervisor.SupervisorConfig` — ``after_trial``,
``batch_runner``, chaos specs, the trial function itself — is handed to
each runner.  Runners are forked where ``fork`` exists, so those
arguments are pickled only on platforms without it, which start runners
with ``spawn``.  Lambdas, nested functions, generator expressions and
open file handles are not picklable: under ``fork`` they *appear* to
work, then die wherever ``spawn`` is the start method.  The per-file
rules cannot see this: the lambda is syntactically fine; the problem is
*where it flows*.  This whole-program rule walks every resolved call
into a spawn-boundary constructor and flags unpicklable argument shapes
at the argument's own line, so an inline suppression can sit exactly
where a closure is known never to cross a process (e.g. a ``workers=0``
serial supervisor).

Violating example::

    config = SupervisorConfig(
        workers=4,
        after_trial=lambda res: log.append(res),   # PKL001
    )

Sanctioned fix::

    def _append_result(res):          # module-level, picklable
        log.append(res)

    config = SupervisorConfig(workers=4, after_trial=_append_result)

or, when the callable provably never crosses a process boundary::

    config = dataclasses.replace(
        config,
        after_trial=after_trial,  # reprolint: disable=PKL001 -- serial workers=0
    )
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterator, Optional

from ..callgraph import ProjectIndex
from ..findings import Finding
from ..project import ProjectChecker
from ..registry import register_project_checker

#: Canonical names of the constructors/entry points whose arguments are
#: pickled into spawn-started shard runners (resolved through re-exports).
BOUNDARY_CALLS = frozenset({
    "repro.harness.supervisor.SupervisorConfig",
    "repro.harness.supervisor.CampaignSupervisor",
    "repro.harness.supervisor.run_experiment_campaign",
    "repro.harness.chaos.ChaosPolicy",
})

#: Keyword arguments that carry callables/payloads across the boundary —
#: also the fields ``dataclasses.replace`` may rebind on a config.
BOUNDARY_KWARGS = frozenset({
    "after_trial",
    "batch_runner",
    "chaos",
    "progress",
    "trial_fn",
})

#: Argument shapes that cannot cross a spawn boundary.
_BAD_KINDS = MappingProxyType({
    "lambda": "a lambda",
    "localdef": "a nested function",
    "genexpr": "a generator expression",
    "open": "an open file handle",
})


def boundary_label(index: ProjectIndex, target: str) -> Optional[str]:
    """Short display name when *target* is a spawn-boundary call, else None."""
    canonical = index.canonical(target)
    if canonical in BOUNDARY_CALLS:
        return canonical.rsplit(".", 1)[-1]
    return None


@register_project_checker
class SpawnBoundaryChecker(ProjectChecker):
    rule_id = "PKL001"
    title = "no unpicklable values passed across a worker spawn boundary"
    hint = (
        "move the callable to module level (def at top of file); spawn-started "
        "shard runners pickle everything reachable through SupervisorConfig"
    )
    invariant = (
        "campaign configs survive the spawn boundary — a campaign that runs "
        "serially also runs with workers=N"
    )
    include = ("src/repro/", "examples/")
    exclude = ("src/repro/analysis/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for qualname, relpath, facts in index.functions():
            if not self.applies_to(relpath):
                continue
            for call in facts.calls:
                target = call.get("target")
                if target is None:
                    continue
                label = boundary_label(index, target)
                if label is not None:
                    yield from self._check_args(relpath, label, call)
                elif target == "dataclasses.replace":
                    yield from self._check_replace(relpath, call)

    # ------------------------------------------------------------------
    def _check_args(
        self, relpath: str, label: str, call: Dict[str, Any]
    ) -> Iterator[Finding]:
        for pos, arg in enumerate(call.get("args", ())):
            yield from self._judge(relpath, label, f"arg{pos}", arg)
        for name, arg in sorted(call.get("kwargs", {}).items()):
            yield from self._judge(relpath, label, name, arg)

    def _check_replace(
        self, relpath: str, call: Dict[str, Any]
    ) -> Iterator[Finding]:
        # dataclasses.replace(config, after_trial=...) rebinds a boundary
        # field on an existing config; only the known fields are judged.
        for name, arg in sorted(call.get("kwargs", {}).items()):
            if name in BOUNDARY_KWARGS:
                yield from self._judge(relpath, "dataclasses.replace", name, arg)

    def _judge(
        self, relpath: str, label: str, slot: str, arg: Dict[str, Any]
    ) -> Iterator[Finding]:
        kind = arg.get("kind")
        what = _BAD_KINDS.get(kind)
        if what is None:
            return
        named = arg.get("name")
        detail = f" ({named!r})" if named and named != "<lambda>" else ""
        yield self.finding(
            relpath,
            arg.get("line", 1),
            f"{what}{detail} passed into {label}({slot}=...) cannot cross "
            f"a spawn boundary",
            key=f"{label}:{slot}:{kind}",
        )
