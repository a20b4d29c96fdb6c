"""The whole-program facts layer: summaries, module graph, call graph.

Covers the resolution corners the project rules lean on: relative
imports at every level, re-exports chased through ``__init__.py``
(including chains and cycles), module-graph edges, and the summary
round-trip the cache depends on.
"""

import ast

import pytest

from repro.analysis import (
    FunctionFacts,
    ModuleSummary,
    ProjectIndex,
    extract_summary,
    module_name_for,
)


def summarize(relpath: str, source: str) -> ModuleSummary:
    return extract_summary(relpath, source, ast.parse(source))


def index_of(*files) -> ProjectIndex:
    return ProjectIndex([summarize(rel, src) for rel, src in files])


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------
class TestModuleNameFor:
    @pytest.mark.parametrize("relpath,expected", [
        ("src/repro/harness/seeds.py", "repro.harness.seeds"),
        ("src/repro/obs/__init__.py", "repro.obs"),
        ("src/repro/__init__.py", "repro"),
        ("tests/analysis/test_x.py", None),
        ("tools/reprolint.py", None),
        ("src/repro/not-a-module.py", None),
    ])
    def test_naming(self, relpath, expected):
        assert module_name_for(relpath) == expected


# ----------------------------------------------------------------------
# Relative imports
# ----------------------------------------------------------------------
class TestRelativeImports:
    def test_single_dot_resolves_to_sibling(self):
        idx = index_of(
            ("src/repro/pkg/a.py", "def helper():\n    return 1\n"),
            ("src/repro/pkg/b.py",
             "from .a import helper\n"
             "def caller():\n    return helper()\n"),
        )
        _, facts = idx.lookup("repro.pkg.b.caller")
        assert list(idx.call_edges(facts)) == [("repro.pkg.a.helper", 3)]

    def test_double_dot_climbs_a_package(self):
        idx = index_of(
            ("src/repro/base.py", "def core():\n    return 1\n"),
            ("src/repro/pkg/b.py",
             "from ..base import core\n"
             "def caller():\n    return core()\n"),
        )
        _, facts = idx.lookup("repro.pkg.b.caller")
        assert list(idx.call_edges(facts)) == [("repro.base.core", 3)]

    def test_relative_import_in_package_init(self):
        # In an __init__.py, level 1 is the package itself.
        idx = index_of(
            ("src/repro/pkg/impl.py", "def f():\n    return 1\n"),
            ("src/repro/pkg/__init__.py", "from .impl import f\n"),
        )
        assert idx.canonical("repro.pkg.f") == "repro.pkg.impl.f"

    def test_overlong_relative_import_is_dropped(self):
        summary = summarize(
            "src/repro/top.py", "from ....nowhere import thing\n"
        )
        assert "thing" not in summary.exports


# ----------------------------------------------------------------------
# Re-exports through __init__.py
# ----------------------------------------------------------------------
class TestReExports:
    def test_lookup_chases_one_init(self):
        idx = index_of(
            ("src/repro/pkg/impl.py",
             "class Widget:\n    def spin(self):\n        return 1\n"),
            ("src/repro/pkg/__init__.py", "from .impl import Widget\n"),
        )
        assert idx.canonical("repro.pkg.Widget") == "repro.pkg.impl.Widget"
        entry = idx.lookup("repro.pkg.Widget.spin")
        assert entry is not None
        relpath, facts = entry
        assert relpath == "src/repro/pkg/impl.py"
        assert facts.name == "Widget.spin"

    def test_lookup_chases_chained_inits(self):
        idx = index_of(
            ("src/repro/a/deep.py", "def f():\n    return 1\n"),
            ("src/repro/a/__init__.py", "from .deep import f\n"),
            ("src/repro/__init__.py", "from .a import f\n"),
        )
        assert idx.canonical("repro.f") == "repro.a.deep.f"
        assert idx.resolve("repro.f") == "repro.a.deep.f"

    def test_export_cycle_terminates(self):
        idx = index_of(
            ("src/repro/x.py", "from repro.y import thing\n"),
            ("src/repro/y.py", "from repro.x import thing\n"),
        )
        # Chasing stops at _MAX_CHASE instead of recursing forever.
        assert idx.canonical("repro.x.thing") in (
            "repro.x.thing", "repro.y.thing"
        )
        assert idx.resolve("repro.x.thing") is None

    def test_unknown_names_pass_through(self):
        idx = index_of(("src/repro/a.py", "def f():\n    return 1\n"))
        assert idx.canonical("numpy.random.default_rng") == (
            "numpy.random.default_rng"
        )
        assert idx.lookup("repro.a.missing") is None


# ----------------------------------------------------------------------
# Summary round-trip (what the cache persists)
# ----------------------------------------------------------------------
class TestSummaryRoundTrip:
    SOURCE = (
        "import time\n"
        "import numpy as np\n"
        "def f(seed):\n"
        "    t = time.time()\n"
        "    rng = np.random.default_rng(seed)\n"
        "    hook = lambda x: rng.normal()\n"
        "    return hook, t\n"
    )

    def test_round_trip_is_identity(self):
        summary = summarize("src/repro/m.py", self.SOURCE)
        again = ModuleSummary.from_dict(summary.to_dict())
        assert again.to_dict() == summary.to_dict()

    def test_facts_content(self):
        summary = summarize("src/repro/m.py", self.SOURCE)
        facts = FunctionFacts.from_dict(summary.functions["f"])
        assert [s["sink"] for s in facts.sinks] == ["time.time"]
        assert [r["seed"] for r in facts.rngs] == ["derived"]
        assert facts.closures[0]["captures_rng"] == ["rng"]

    def test_suppression_lines_recorded(self):
        summary = summarize(
            "src/repro/m.py",
            "import time\n"
            "def f():\n"
            "    return time.time()  "
            "# reprolint: disable=DET001 -- fixture reason\n",
        )
        assert summary.suppressed == {"3": ["DET001"]}

    def test_self_method_resolution(self):
        summary = summarize(
            "src/repro/m.py",
            "class C:\n"
            "    def a(self):\n"
            "        return self.b()\n"
            "    def b(self):\n"
            "        return 1\n",
        )
        facts = FunctionFacts.from_dict(summary.functions["C.a"])
        assert facts.calls[0]["target"] == "repro.m.C.b"
