"""Incremental analysis must be indistinguishable from a cold full run.

The engine's contract (see ``project.py``): project checkers compute
global facts over the always-full index, and the engine slices them to
the requested paths.  So for *any* subset of files analysing the subset must
return exactly the slice of a cold full-tree run.  A Hypothesis
property drives that over generated module sets; deterministic tests
pin the no-expansion and warm-cache corners.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_analysis

from .conftest import write_module

# A small vocabulary of module bodies: deterministic, per-file
# violations, project-rule violations, and import edges that make
# DET004 findings depend on *other* files being in the index.
CLEAN = "def f{i}():\n    return {i}\n"
WALLCLOCK = "import time\ndef f{i}():\n    return time.time()\n"
LITERAL_RNG = (
    "import numpy as np\n"
    "def f{i}():\n"
    "    return np.random.default_rng({i})\n"
)
TRANSITIVE = (
    "from repro.mod0 import f0\n"
    "def f{i}():\n"
    "    return f0()\n"
)

BODIES = (CLEAN, WALLCLOCK, LITERAL_RNG, TRANSITIVE)
RULES = ["DET001", "DET004", "SEED001"]


def build(tmp_path, picks):
    root = tmp_path / "repo"
    (root / "pyproject.toml").parent.mkdir(parents=True, exist_ok=True)
    (root / "pyproject.toml").write_text("[project]\nname='x'\n")
    for i, body in enumerate(picks):
        write_module(root, f"src/repro/mod{i}.py", body.format(i=i))
    return root


@settings(max_examples=25, deadline=None)
@given(
    picks=st.lists(st.sampled_from(BODIES), min_size=2, max_size=5),
    subset_mask=st.lists(st.booleans(), min_size=2, max_size=5),
)
def test_subset_analysis_equals_slice_of_cold_run(
    tmp_path_factory, picks, subset_mask
):
    # mod0 is always the transitive target; keep it deterministic so
    # TRANSITIVE picks produce DET004 findings only via WALLCLOCK mod0.
    root = build(tmp_path_factory.mktemp("prop"), picks)
    cold = run_analysis(root, rules=RULES)

    rels = [f"src/repro/mod{i}.py" for i in range(len(picks))]
    subset = [r for r, keep in zip(rels, subset_mask) if keep]
    if not subset:
        subset = [rels[0]]
    sliced = run_analysis(root, rules=RULES, paths=subset)
    expected = [f for f in cold.findings if f.path in set(subset)]
    assert sliced.findings == expected


class TestChangedOnlyClosure:
    """Narrowing never expands to importers: a path-narrowed run analyses
    exactly the given files (reprolint has no changed-files mode that
    widens the set)."""

    def test_plain_paths_do_not_expand(self, tmp_repo):
        write_module(tmp_repo, "src/repro/mod0.py", WALLCLOCK.format(i=0))
        write_module(tmp_repo, "src/repro/mod1.py", TRANSITIVE.format(i=1))
        result = run_analysis(tmp_repo, paths=["src/repro/mod0.py"])
        assert {f.path for f in result.findings} == {"src/repro/mod0.py"}


class TestWarmRunBitIdentity:
    def test_warm_equals_cold_including_project_findings(self, tmp_repo):
        write_module(tmp_repo, "src/repro/mod0.py", WALLCLOCK.format(i=0))
        write_module(tmp_repo, "src/repro/mod1.py", TRANSITIVE.format(i=1))
        write_module(tmp_repo, "src/repro/mod2.py", LITERAL_RNG.format(i=2))
        cache = tmp_repo / ".cache.json"
        cold = run_analysis(tmp_repo, rules=RULES, cache_path=cache)
        warm = run_analysis(tmp_repo, rules=RULES, cache_path=cache)
        assert warm.files_reanalyzed == 0
        assert warm.findings == cold.findings
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]
