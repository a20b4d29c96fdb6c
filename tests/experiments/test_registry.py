"""The declarative experiment registry: discovery, identity, round-trips."""

import importlib
import json

import pytest

from repro import runtime
from repro.errors import ConfigurationError
from repro.experiments import coverage_table, registry, weakly_hard
from repro.experiments.registry import (
    REGISTRY,
    Experiment,
    ExperimentRegistry,
    experiment_modules,
    load_all,
    to_jsonable,
)
from repro.obs import metrics as obs_metrics

#: Stable public ids — renaming one breaks CLI invocations and saved
#: configs, so a rename must be deliberate (update this list in the same
#: change).
EXPECTED_IDS = {
    "figure12": "E1",
    "mttf_table": "E2",
    "figure13": "E3",
    "figure14": "E4",
    "coverage_table": "E5",
    "tem_timeline": "E6",
    "schedulability": "E7",
    "simulation_study": "E8a",
    "braking_comparison": "E8b",
    "redundancy_table": "E9",
    "importance_table": "E10",
    "ablation_table": "E11",
    "workload_table": "E12",
    "availability_table": "E13",
    "weakly_hard": "E14",
    "multicore": "E15",
}


@pytest.fixture(scope="module")
def loaded():
    return load_all()


class TestDiscovery:
    @pytest.mark.parametrize("module_name", experiment_modules())
    def test_every_module_registers_exactly_one_experiment(
        self, loaded, module_name
    ):
        module = importlib.import_module(f"repro.experiments.{module_name}")
        qualified = f"repro.experiments.{module_name}"
        owned = [exp for exp in loaded if exp.module == qualified]
        assert len(owned) == 1, (
            f"{module_name} must register exactly one Experiment, "
            f"found {len(owned)}"
        )
        # The decorator leaves the registration as a module attribute.
        instances = [
            value for value in vars(module).values()
            if isinstance(value, Experiment)
        ]
        assert owned[0] in instances

    def test_load_all_is_idempotent(self, loaded):
        assert load_all() is REGISTRY
        assert len(load_all()) == len(loaded)

    def test_ids_are_stable(self, loaded):
        assert {exp.id: exp.index for exp in loaded} == EXPECTED_IDS

    def test_report_order(self, loaded):
        indexes = [exp.index for exp in loaded]
        assert indexes == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8a", "E8b",
            "E9", "E10", "E11", "E12", "E13", "E14", "E15",
        ]

    def test_section_titles_match_runner_sections(self, loaded):
        from repro.experiments.runner import build_sections
        from repro.runtime import RunContext

        assert list(build_sections(RunContext())) == [
            exp.section_title for exp in loaded
        ]

    def test_get_unknown_id(self, loaded):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            loaded.get("no_such_experiment")


class TestRegistryInvariants:
    def test_duplicate_id_rejected(self):
        fresh = ExperimentRegistry()
        fresh.register(Experiment("dup", "E1", "t", (), lambda ctx: None,
                                  module="m1"))
        with pytest.raises(ConfigurationError, match="already registered"):
            fresh.register(Experiment("dup", "E2", "t", (), lambda ctx: None,
                                      module="m2"))

    def test_duplicate_index_rejected(self):
        fresh = ExperimentRegistry()
        fresh.register(Experiment("a", "E1", "t", (), lambda ctx: None))
        with pytest.raises(ConfigurationError, match="already taken"):
            fresh.register(Experiment("b", "E1", "t", (), lambda ctx: None))

    def test_same_module_reregistration_is_idempotent(self):
        fresh = ExperimentRegistry()
        first = Experiment("a", "E1", "t", (), lambda ctx: None, module="m")
        fresh.register(first)
        fresh.register(Experiment("a", "E1", "t", (), lambda ctx: None,
                                  module="m"))
        assert len(fresh) == 1

    @pytest.mark.parametrize("bad_index", ["1", "e5", "E", "E5aa", "F2"])
    def test_bad_index_rejected(self, bad_index):
        with pytest.raises(ConfigurationError):
            Experiment("a", bad_index, "t", (), lambda ctx: None)

    @pytest.mark.parametrize("bad_id", ["Bad", "has-dash", "9lead", ""])
    def test_bad_id_rejected(self, bad_id):
        with pytest.raises(ConfigurationError):
            Experiment(bad_id, "E1", "t", (), lambda ctx: None)

    def test_section_title_formatting(self):
        short = Experiment("a", "E1", "Title", (), lambda ctx: None)
        long = Experiment("b", "E8a", "Title", (), lambda ctx: None)
        assert short.section_title == "E1  Title"
        assert long.section_title == "E8a Title"


#: One tiny-but-real context for the full-result round-trip: smoke sizes
#: scaled down hard, serial, no journals.
_TINY = runtime.RunConfig(smoke=True, scale=0.02)


@pytest.fixture(scope="module")
def tiny_results(loaded):
    """Run every registered experiment once at tiny scale."""
    results = {}
    context = runtime.RunContext(_TINY)
    with runtime.activate(context):
        for exp in loaded:
            results[exp.id] = exp.run(context)
    return results


@pytest.mark.parametrize("experiment_id", sorted(EXPECTED_IDS))
def test_run_result_renders_and_round_trips_json(
    loaded, tiny_results, experiment_id
):
    exp = loaded.get(experiment_id)
    result = tiny_results[experiment_id]
    # Every result renders to the report section body.
    assert isinstance(exp.render(result), str) and exp.render(result)
    # The uniform projection survives a JSON round-trip unchanged.
    payload = exp.to_dict(result)
    assert payload["id"] == experiment_id
    assert payload["index"] == exp.index
    assert payload["paper_anchors"] == list(exp.paper_anchors)
    assert json.loads(json.dumps(payload)) == payload


def _run_counting_chunks(loaded, experiment_id, config):
    """Run one experiment under *config*; its result and the number of
    lockstep chunks its campaigns committed (``harness.batch_chunks``)."""
    context = runtime.RunContext(config)
    with runtime.activate(context), obs_metrics.capture() as registry:
        result = loaded.get(experiment_id).run(context)
    counters = registry.snapshot().get("counters", {})
    return result, counters.get("harness.batch_chunks", 0)


def _records(stats):
    return [record.to_json() for record in stats.records]


def test_campaign_experiments_batch_by_default(loaded, monkeypatch):
    """The E5 and E14 registry runs step lockstep chunks with no knob set
    and reproduce the scalar library campaigns record for record; a
    profiled run takes the per-trial path."""
    result, chunks = _run_counting_chunks(loaded, "coverage_table", _TINY)
    assert chunks >= 1
    scalar = coverage_table.run_coverage_campaign(
        experiments=_TINY.campaign_size(2_000, 300), batch=0
    )
    assert _records(result.stats) == _records(scalar.stats)

    campaigns = []
    real_run_mk_campaign = weakly_hard.run_mk_campaign

    def recording_run_mk_campaign(experiments, **kwargs):
        stats, payloads = real_run_mk_campaign(experiments, **kwargs)
        campaigns.append((experiments, kwargs, stats))
        return stats, payloads

    monkeypatch.setattr(weakly_hard, "run_mk_campaign", recording_run_mk_campaign)
    _, chunks = _run_counting_chunks(loaded, "weakly_hard", _TINY)
    assert chunks >= len(campaigns) == 2
    for experiments, kwargs, stats in campaigns:
        scalar_stats, _ = real_run_mk_campaign(
            experiments, **{**kwargs, "batch": 0}
        )
        assert _records(stats) == _records(scalar_stats)

    profiled = _TINY.replace(profile=True)
    _, chunks = _run_counting_chunks(loaded, "coverage_table", profiled)
    assert chunks == 0


class TestToJsonable:
    def test_tuple_keys_join(self):
        assert to_jsonable({("fs", "degraded"): 1.0}) == {"fs/degraded": 1.0}

    def test_sets_sort(self):
        assert to_jsonable({"s": {3, 1, 2}}) == {"s": [1, 2, 3]}

    def test_numpy_values(self):
        np = pytest.importorskip("numpy")
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_registry_namespace_is_clean(self):
        # The registry module itself must not register an experiment.
        assert all(
            exp.module != registry.__name__ for exp in load_all()
        )
