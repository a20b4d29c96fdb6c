"""Per-rule positive/negative fixture tests for every built-in checker."""

import pytest

from repro.analysis import checker_rule_ids, get_checker
from repro.analysis.registry import ENGINE_RULES, rule_descriptions

from .conftest import DEFAULT_RELPATH


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


class TestRegistryContents:
    def test_at_least_six_checker_rules(self):
        assert len(checker_rule_ids()) >= 6

    def test_expected_rules_registered(self):
        assert set(checker_rule_ids()) >= {
            "DET001", "DET002", "DET003", "CTX001", "CTX002", "SIM001",
        }

    def test_engine_rules_are_not_checkers(self):
        assert not set(ENGINE_RULES) & set(checker_rule_ids())

    def test_every_rule_documents_its_invariant(self):
        for rule_id, info in rule_descriptions().items():
            assert info["title"], rule_id
            assert info["invariant"], rule_id

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_checker("NOPE999")


class TestDet001WallClock:
    def test_positive_flags_every_wall_clock_read(self, run_rule):
        findings = _errors(run_rule("DET001", "det001_pos.py"))
        assert {f.key for f in findings} == {
            "time.perf_counter", "time.time", "time.monotonic_ns",
            "datetime.datetime.now",
        }
        assert all(f.rule == "DET001" for f in findings)
        assert all(f.path == DEFAULT_RELPATH for f in findings)

    def test_negative_is_clean_including_suppressed_read(self, run_rule):
        # The fixture's one perf_counter() call carries a justified inline
        # suppression, so neither DET001 nor SUP002 fires.
        assert run_rule("DET001", "det001_neg.py") == []

    def test_obs_layer_is_out_of_scope(self):
        checker = get_checker("DET001")
        assert not checker.applies_to("src/repro/obs/metrics.py")
        assert not checker.applies_to("src/repro/harness/supervisor.py")
        assert checker.applies_to("src/repro/sim/simulator.py")


class TestDet002Rng:
    def test_positive_flags_each_family(self, run_rule):
        keys = {f.key for f in _errors(run_rule("DET002", "det002_pos.py"))}
        assert keys == {
            "random.random",             # global-state draw
            "random.seed",               # global seeding
            "numpy.random.default_rng",  # unseeded constructor
            "random.Random",             # unseeded constructor
            "numpy.random.normal",       # global numpy draw
        }

    def test_negative_seeded_constructors_pass(self, run_rule):
        assert run_rule("DET002", "det002_neg.py") == []

    def test_tests_are_in_scope(self):
        # Unlike the other rules, DET002 covers the test suite too.
        assert get_checker("DET002").applies_to("tests/sim/test_x.py")


class TestDet003Unordered:
    def test_positive_flags_all_four_shapes(self, run_rule):
        findings = _errors(run_rule("DET003", "det003_pos.py"))
        assert sorted(f.key for f in findings) == [
            "os.listdir", "set-iteration", "set-iteration", "sorted:key-id",
        ]

    def test_negative_sorted_wrappers_pass(self, run_rule):
        assert run_rule("DET003", "det003_neg.py") == []


class TestCtx001ModuleState:
    def test_positive_flags_assignments_and_global(self, run_rule):
        findings = _errors(run_rule("CTX001", "ctx001_pos.py"))
        assert {f.key for f in findings} == {
            "_CACHE", "RESULTS", "_GROUPS", "_SEEN", "global:_COUNTER",
        }

    def test_negative_constants_and_locals_pass(self, run_rule):
        # __all__ (a mutable list literal) is explicitly always allowed.
        assert run_rule("CTX001", "ctx001_neg.py") == []


class TestCtx002Singletons:
    def test_positive_flags_import_and_use(self, run_rule):
        findings = _errors(run_rule(
            "CTX002", "ctx002_pos.py", relpath="src/repro/apps/fixture_mod.py"
        ))
        assert len(findings) >= 2  # the import and the call
        assert {f.key for f in findings} == {"default_context"}

    def test_home_module_may_touch_its_own_singleton(self, run_rule):
        assert run_rule(
            "CTX002", "ctx002_pos.py",
            relpath="src/repro/runtime/bootstrap.py",
        ) == []

    def test_negative_goes_through_current(self, run_rule):
        assert run_rule(
            "CTX002", "ctx002_neg.py", relpath="src/repro/apps/fixture_mod.py"
        ) == []


class TestSim001SimTime:
    def test_positive_flags_float_compares_and_bare_schedules(self, run_rule):
        keys = {f.key for f in _errors(run_rule("SIM001", "sim001_pos.py"))}
        assert keys == {
            "float-compare:deadline",
            "float-compare:now",
            "no-priority:check:schedule_at",
            "no-priority:check:schedule_after",
            "no-priority:check_operands:schedule_at",
            "no-priority:check_operands:schedule_after",
        }

    def test_negative_explicit_priorities_pass(self, run_rule):
        # Integer tick literals, a *_s-suffixed float threshold, and
        # explicit priorities (with positional operands too): all
        # deliberate, none flagged.
        assert run_rule("SIM001", "sim001_neg.py") == []

    def test_reliability_layer_is_out_of_scope(self):
        # The Markov/fault-tree layers compute in float hours by design.
        assert not get_checker("SIM001").applies_to(
            "src/repro/reliability/markov.py"
        )
