"""Context scoping: activation, fallback, per-context services, shims."""

import threading

import pytest

from repro import runtime
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile


class TestActivation:
    def test_default_fallback(self):
        assert runtime.current_or_none() is None
        assert runtime.current() is runtime.default_context()

    def test_activate_scopes_current(self):
        ctx = runtime.RunContext(runtime.RunConfig(jobs=3))
        with runtime.activate(ctx) as active:
            assert active is ctx
            assert runtime.current() is ctx
            assert runtime.current_or_none() is ctx
        assert runtime.current_or_none() is None

    def test_activation_nests(self):
        outer = runtime.RunContext()
        inner = runtime.RunContext()
        with runtime.activate(outer):
            with runtime.activate(inner):
                assert runtime.current() is inner
            assert runtime.current() is outer

    def test_activation_is_thread_local(self):
        ctx = runtime.RunContext()
        seen = {}
        ready = threading.Event()
        release = threading.Event()

        def other_thread():
            seen["other"] = runtime.current_or_none()
            ready.set()
            release.wait(timeout=10)

        with runtime.activate(ctx):
            worker = threading.Thread(target=other_thread)
            worker.start()
            assert ready.wait(timeout=10)
            release.set()
            worker.join()
        # The activation never leaked into the unrelated thread.
        assert seen["other"] is None

    def test_reset_default_context(self):
        before = runtime.default_context()
        after = runtime.reset_default_context()
        try:
            assert after is not before
            assert runtime.current() is after
        finally:
            runtime.reset_default_context()


class TestPerContextServices:
    def test_lazy_services_are_per_context(self):
        a = runtime.RunContext()
        b = runtime.RunContext()
        assert a.metrics is not b.metrics
        assert a.rng is not b.rng

    def test_metrics_disabled_by_config(self):
        ctx = runtime.RunContext(runtime.RunConfig(metrics=False))
        assert not ctx.metrics.enabled

    def test_rng_seeded_from_root_seed(self):
        a = runtime.RunContext(runtime.RunConfig(root_seed=42))
        b = runtime.RunContext(runtime.RunConfig(root_seed=42))
        assert a.rng.integers(1 << 30) == b.rng.integers(1 << 30)


class TestObsShims:
    def test_capture_uses_active_context_stack(self):
        ctx = runtime.RunContext()
        with runtime.activate(ctx):
            with obs_metrics.capture() as captured:
                assert obs_metrics.active() is captured
                assert ctx.metrics_stack[-1] is captured
                obs_metrics.inc("scoped.counter")
            assert ctx.metrics_stack == [ctx.metrics]
        assert captured.snapshot()["counters"]["scoped.counter"] == 1
        # Nothing leaked into the ambient context's registry.
        ambient = obs_metrics.default_registry().snapshot()
        assert "scoped.counter" not in ambient.get("counters", {})

    def test_profile_collector_is_context_scoped(self):
        ctx = runtime.RunContext()
        assert obs_profile.collector() is None or True  # ambient may differ
        with runtime.activate(ctx):
            assert obs_profile.collector() is None
            with obs_profile.enabled(top_k=2) as collector:
                assert obs_profile.collector() is collector
                assert ctx.profile_collector is collector
            assert ctx.profile_collector is None

    def test_record_hot_trial_targets_active_context(self):
        ctx = runtime.RunContext()
        trial = obs_profile.HotTrial("c", 1, 0.5, "stats")
        with runtime.activate(ctx):
            with obs_profile.enabled() as collector:
                obs_profile.record_hot_trial(trial)
            assert collector.hottest() == [trial]


class TestCaptureMerge:
    def test_capture_merges_upstream_on_request(self):
        ctx = runtime.RunContext()
        with runtime.activate(ctx):
            with obs_metrics.capture(merge_upstream=True) as captured:
                obs_metrics.inc("merged.counter", 3)
            base = ctx.metrics.snapshot()
        assert captured.snapshot()["counters"]["merged.counter"] == 3
        assert base["counters"]["merged.counter"] == 3

    def test_capture_default_does_not_merge(self):
        ctx = runtime.RunContext()
        with runtime.activate(ctx):
            with obs_metrics.capture():
                obs_metrics.inc("isolated.counter")
            base = ctx.metrics.snapshot()
        assert "isolated.counter" not in base.get("counters", {})

    def test_nested_merge_folds_into_enclosing_capture(self):
        ctx = runtime.RunContext()
        with runtime.activate(ctx):
            with obs_metrics.capture() as outer:
                with obs_metrics.capture(merge_upstream=True):
                    obs_metrics.inc("nested.counter", 2)
                assert outer.snapshot()["counters"]["nested.counter"] == 2
            assert "nested.counter" not in ctx.metrics.snapshot().get(
                "counters", {}
            )


@pytest.mark.parametrize("progress", [True, False])
def test_worker_run_config_reflects_context(progress):
    """The coordinator hands the active context's config to its runners."""
    from repro.harness.shards import _runner_run_config

    ctx = runtime.RunContext(
        runtime.RunConfig(root_seed=5, jobs=4, progress=progress)
    )
    with runtime.activate(ctx):
        shipped = _runner_run_config()
    assert shipped.root_seed == 5      # the active context's config
    assert shipped.jobs == 0           # runners never nest shard runners
    assert not shipped.progress        # progress stays on the coordinator
