"""PAR001 — scalar/batch twin API surfaces stay in lock-step.

The vectorized batch engine (PR 7) reimplements the scalar
fault-injection path in numpy lockstep, and a differential gate pins
their *results* equal.  Nothing pinned their *signatures*: a keyword
added to ``TemInjectionHarness.run_experiment`` but not to
``BatchTemExecutor.run_experiments`` silently forks the API — callers
of one twin gain an option the other cannot express, and the
differential gate (which calls both with the options it knows) never
notices.  This rule declares the twin pairs and compares their
signature shapes through a singular→plural rename map
(``fault`` ↔ ``faults``, ``miss_window`` ↔ ``miss_windows``), flagging
any divergence in parameter names, order, kind (positional/kw-only/
``*args``/``**kwargs``) or default coverage.  A *missing* endpoint is
also a finding — renaming one twin must not quietly dissolve the pair.

Violating example::

    class TemInjectionHarness:
        def run_experiment(self, fault, miss_window=None, policy=None): ...

    class BatchTemExecutor:
        def run_experiments(self, faults, miss_windows=None): ...
        # PAR001: scalar twin grew 'policy'; batch twin cannot express it

Sanctioned fix: add the parameter to both twins in the same PR (and
extend the differential gate to exercise it), or neither.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from ..callgraph import ProjectIndex
from ..findings import Finding
from ..project import ProjectChecker
from ..registry import register_project_checker

#: The differential-gated scalar/batch twin pairs this repo maintains.
#: ``plural`` maps scalar parameter names to their batch spellings.
TWIN_PAIRS: Tuple[Mapping[str, Any], ...] = (
    {
        "scalar": "repro.faults.campaign.TemInjectionHarness.run_experiment",
        "batch": "repro.faults.batch_campaign.BatchTemExecutor.run_experiments",
        "plural": {"fault": "faults", "miss_window": "miss_windows"},
    },
    {
        "scalar": "repro.faults.campaign.TemInjectionHarness.run_campaign",
        "batch": "repro.faults.batch_campaign.BatchTemExecutor.run_campaign",
        "plural": {},
    },
)


def _normalise(sig: Dict[str, Any], plural: Mapping[str, str]) -> Dict[str, Any]:
    """Signature shape with scalar names mapped to batch spellings."""
    rename = lambda n: plural.get(n, n)  # noqa: E731
    positional = [
        rename(n)
        for n in [*sig.get("posonly", []), *sig.get("args", [])]
        if n not in ("self", "cls")
    ]
    return {
        "positional": positional,
        "vararg": sig.get("vararg") is not None,
        "kwonly": [rename(n) for n in sig.get("kwonly", [])],
        "kwarg": sig.get("kwarg") is not None,
        "defaults": sig.get("defaults", 0),
        "kwdefaults": sorted(rename(n) for n in sig.get("kwdefaults", [])),
    }


def _diff(scalar: Dict[str, Any], batch: Dict[str, Any]) -> Optional[str]:
    """First human-readable divergence between normalised shapes, or None."""
    s_names = set(scalar["positional"]) | set(scalar["kwonly"])
    b_names = set(batch["positional"]) | set(batch["kwonly"])
    only_scalar = sorted(s_names - b_names)
    only_batch = sorted(b_names - s_names)
    if only_scalar:
        return f"scalar-only parameter(s): {', '.join(only_scalar)}"
    if only_batch:
        return f"batch-only parameter(s): {', '.join(only_batch)}"
    if scalar["positional"] != batch["positional"]:
        return (
            f"positional order differs: {scalar['positional']} vs "
            f"{batch['positional']}"
        )
    if scalar["kwonly"] != batch["kwonly"]:
        return f"keyword-only set differs: {scalar['kwonly']} vs {batch['kwonly']}"
    if scalar["vararg"] != batch["vararg"] or scalar["kwarg"] != batch["kwarg"]:
        return "*args/**kwargs presence differs"
    if scalar["defaults"] != batch["defaults"]:
        return (
            f"default coverage differs: {scalar['defaults']} vs "
            f"{batch['defaults']} positional defaults"
        )
    if scalar["kwdefaults"] != batch["kwdefaults"]:
        return (
            f"keyword defaults differ: {scalar['kwdefaults']} vs "
            f"{batch['kwdefaults']}"
        )
    return None


@register_project_checker
class TwinParityChecker(ProjectChecker):
    rule_id = "PAR001"
    title = "scalar/batch twin endpoints exist and keep matching signatures"
    hint = (
        "change both twins together (and extend the batch-vs-scalar "
        "differential gate), or update TWIN_PAIRS if the pairing itself moved"
    )
    invariant = (
        "the scalar and vectorized fault-injection paths expose the same "
        "API surface — the differential gate exercises what callers can call"
    )
    include = ("src/repro/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for pair in TWIN_PAIRS:
            scalar = index.lookup(pair["scalar"])
            batch = index.lookup(pair["batch"])
            if scalar is None and batch is None:
                continue  # pair not present in this tree (fixture projects)
            if scalar is None or batch is None:
                present_name = pair["batch"] if scalar is None else pair["scalar"]
                missing_name = pair["scalar"] if scalar is None else pair["batch"]
                relpath, facts = batch if scalar is None else scalar  # type: ignore[misc]
                yield self.finding(
                    relpath,
                    facts.line,
                    f"twin endpoint {missing_name} is missing (its pair "
                    f"{present_name} exists) — renamed or deleted without "
                    f"updating the twin declaration",
                    key=f"missing:{missing_name}",
                )
                continue
            s_rel, s_facts = scalar
            b_rel, b_facts = batch
            divergence = _diff(
                _normalise(s_facts.signature, pair["plural"]),
                _normalise(b_facts.signature, {}),
            )
            if divergence is not None:
                short_s = pair["scalar"].rsplit(".", 1)[-1]
                short_b = pair["batch"].rsplit(".", 1)[-1]
                yield self.finding(
                    b_rel,
                    b_facts.line,
                    f"batch twin {short_b}() diverged from scalar twin "
                    f"{short_s}() ({s_rel}:{s_facts.line}): {divergence}",
                    key=f"{pair['scalar']}~{pair['batch']}",
                )
