"""Unit tests of the frozen per-run configuration."""

import dataclasses
import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.runtime import DEFAULT_HORIZON_HOURS, RunConfig


class TestDefaults:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.jobs == 0
        assert cfg.timeout_s is None
        assert cfg.root_seed == 0
        assert cfg.resume_dir is None
        assert not cfg.smoke
        assert cfg.scale == 1.0
        assert cfg.metrics
        assert not cfg.progress and not cfg.profile
        assert cfg.horizon_hours == DEFAULT_HORIZON_HOURS

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().jobs = 3


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"jobs": -1},
        {"timeout_s": 0.0},
        {"timeout_s": -5.0},
        {"scale": 0.0},
        {"scale": -1.0},
        {"budget_s": 0.0},
        {"horizon_hours": 0.0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunConfig(**kwargs)


class TestDerivedKnobs:
    def test_campaign_size_full_vs_smoke(self):
        assert RunConfig(smoke=False).campaign_size(2_000, 300) == 2_000
        assert RunConfig(smoke=True).campaign_size(2_000, 300) == 300

    def test_campaign_size_scale(self):
        assert RunConfig(scale=0.75).campaign_size(2_000, 300) == 1_500
        assert RunConfig(smoke=True, scale=0.1).campaign_size(2_000, 300) == 30
        # Never rounds to zero.
        assert RunConfig(smoke=True, scale=1e-6).campaign_size(2_000, 300) == 1

    def test_journal_path(self, tmp_path):
        assert RunConfig().journal_path("e5") is None
        cfg = RunConfig(resume_dir=str(tmp_path))
        assert cfg.journal_path("e5") == str(tmp_path / "e5.jsonl")


class TestSerialisation:
    def test_dict_round_trip(self):
        cfg = RunConfig(jobs=4, timeout_s=2.5, root_seed=7,
                        smoke=True, scale=0.5, profile=True)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_json_ready(self):
        assert json.loads(json.dumps(RunConfig().to_dict())) == RunConfig().to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown RunConfig keys"):
            RunConfig.from_dict({"jbos": 2})

    def test_from_dict_rejects_removed_fast_key(self):
        """A config file from before the single-path runtime fails loudly."""
        with pytest.raises(ConfigurationError, match="fast"):
            RunConfig.from_dict({"fast": True})

    def test_from_dict_rejects_removed_shards_key(self):
        """``--jobs`` runs shard runners; the separate knob is gone."""
        with pytest.raises(ConfigurationError, match="shards"):
            RunConfig.from_dict({"shards": 2})

    def test_from_dict_rejects_removed_lease_ttl_key(self):
        """Runners heartbeat from a thread; no TTL needs tuning per run."""
        with pytest.raises(ConfigurationError, match="lease_ttl_s"):
            RunConfig.from_dict({"lease_ttl_s": 5.0})

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"root_seed": 3, "jobs": 2, "smoke": True}))
        cfg = RunConfig.from_file(path)
        assert cfg.root_seed == 3 and cfg.jobs == 2 and cfg.smoke

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            RunConfig.from_file(bad)

    def test_pickles(self):
        cfg = RunConfig(root_seed=3, jobs=2, smoke=True)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_replace(self):
        cfg = RunConfig(jobs=1)
        assert cfg.replace(jobs=8).jobs == 8
        assert cfg.jobs == 1  # original untouched
        with pytest.raises(ConfigurationError):
            cfg.replace(scale=-1)
