"""SEED001 — every RNG stream's seed has ``derive_seed`` lineage.

DET002 rejects *unseeded* constructors; this whole-program rule audits
the seeds that **are** supplied.  The reproducibility contract (PR 4)
is that every stream in a trial descends from ``(root_seed, trial_id)``
through :func:`repro.harness.seeds.derive_seed` or the
``RunContext.rng`` root generator.  Two seed shapes silently break that
lineage while looking disciplined:

* a **literal** seed — ``default_rng(0)`` — a fixed stream identical
  across trials, shards and campaigns, invisibly correlating what
  should be independent draws;
* a **module-level constant** — ``default_rng(_SEED)`` — the same fixed
  stream wearing a name.

Seeds built from parameters, attributes or locals are trusted (lineage
was established where the value was produced — the per-file rules on
the producer police that), and ``derive_seed(...)`` / ``ctx.rng`` /
``cfg.root_seed`` expressions are sanctioned outright.  The rule also
flags a nested callable that *captures a generator by closure* and is
then handed to a spawn-boundary call: each worker inherits a copy of
the generator's state, so every worker replays identical draws.

Violating example::

    def make_node(node_id):
        rng = np.random.default_rng(0)        # SEED001: literal seed
        return Node(node_id, rng)

Sanctioned fix::

    def make_node(node_id, master_seed):
        rng = np.random.default_rng(derive_seed(master_seed, "node", node_id))
        return Node(node_id, rng)

Deliberate fixed streams (e.g. a documented fallback default) carry an
inline ``# reprolint: disable=SEED001 -- <why>`` on the flagged line.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator

from ..callgraph import ProjectIndex
from ..findings import Finding
from ..project import ProjectChecker
from ..registry import register_project_checker
from .pkl001_spawn_boundary import boundary_label


@register_project_checker
class RngLineageChecker(ProjectChecker):
    rule_id = "SEED001"
    title = "RNG seeds must descend from derive_seed / RunContext lineage"
    hint = (
        "seed the generator from repro.harness.seeds.derive_seed(master, *path) "
        "or the RunContext root RNG instead of a fixed constant"
    )
    invariant = (
        "independent components draw from independent streams — fixed seeds "
        "silently correlate trials that the paper's statistics assume i.i.d."
    )
    include = ("src/repro/",)
    exclude = ("src/repro/analysis/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for qualname, relpath, facts in index.functions():
            if not self.applies_to(relpath):
                continue
            for rng in facts.rngs:
                yield from self._judge_seed(relpath, rng)
            closures = {c["name"]: c for c in facts.closures}
            by_line = {c["line"]: c for c in facts.closures}
            for call in facts.calls:
                target = call.get("target")
                if target is None or boundary_label(index, target) is None:
                    continue
                for arg in self._callable_args(call):
                    closure = None
                    if arg.get("name") in closures:
                        closure = closures[arg["name"]]
                    elif arg.get("kind") == "lambda":
                        closure = by_line.get(arg.get("line"))
                    if closure and closure.get("captures_rng"):
                        captured = ", ".join(closure["captures_rng"])
                        yield self.finding(
                            relpath,
                            arg.get("line", 1),
                            f"closure {closure['name']!r} captures RNG "
                            f"stream(s) {captured} across a worker boundary — "
                            f"every worker replays the copied generator state",
                            key=f"closure:{closure['name']}",
                        )

    # ------------------------------------------------------------------
    def _judge_seed(
        self, relpath: str, rng: Dict[str, Any]
    ) -> Iterator[Finding]:
        seed = str(rng.get("seed", ""))
        target = rng.get("target", "rng")
        line = rng.get("line", 1)
        if seed == "literal":
            yield self.finding(
                relpath,
                line,
                f"{target}() seeded with a literal — a fixed stream identical "
                f"across trials, outside derive_seed lineage",
                key=f"{target}:literal",
            )
        elif seed.startswith("global:"):
            name = seed.split(":", 1)[1]
            yield self.finding(
                relpath,
                line,
                f"{target}() seeded from module-level constant {name!r} — a "
                f"hidden fixed stream outside derive_seed lineage",
                key=f"{target}:global:{name}",
            )
        # "sanctioned"/"derived" are trusted; "unseeded" is DET002's finding.

    @staticmethod
    def _callable_args(call: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        for arg in call.get("args", ()):
            yield arg
        for _name, arg in sorted(call.get("kwargs", {}).items()):
            yield arg
