"""Unit tests of the mergeable metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import metrics


class TestRegistry:
    def test_counters_and_gauges(self):
        reg = metrics.MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.gauge("g", 0.5)
        reg.gauge("g", 0.7)  # last write wins
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["gauges"] == {"g": 0.7}

    def test_zero_increment_records_nothing(self):
        reg = metrics.MetricsRegistry()
        reg.inc("a", 0)
        assert metrics.snapshot_is_empty(reg.snapshot())

    def test_timer_statistics(self):
        reg = metrics.MetricsRegistry()
        reg.observe_duration("t", 0.2)
        reg.observe_duration("t", 0.1)
        reg.observe_duration("t", 0.4)
        data = reg.snapshot()["timers"]["t"]
        assert data["count"] == 3
        assert data["total_s"] == pytest.approx(0.7)
        assert data["min_s"] == pytest.approx(0.1)
        assert data["max_s"] == pytest.approx(0.4)

    def test_span_records_a_timer(self):
        reg = metrics.MetricsRegistry()
        with reg.span("work"):
            pass
        assert reg.timer_count("work") == 1

    def test_histogram_buckets(self):
        reg = metrics.MetricsRegistry()
        bounds = (1.0, 10.0)
        for value in (0.5, 5.0, 50.0):
            reg.observe("h", value, bounds=bounds)
        data = reg.snapshot()["histograms"]["h"]
        assert data["count"] == 3
        assert data["counts"] == [1, 1, 1]  # <=1, <=10, overflow
        assert data["total"] == pytest.approx(55.5)

    def test_histogram_bounds_mismatch_rejected(self):
        reg = metrics.MetricsRegistry()
        reg.observe("h", 1.0, bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.observe("h", 1.0, bounds=(1.0, 3.0))

    def test_new_bounds_objects_are_checked_by_value(self):
        """The registered bounds object skips the check; any other object
        is compared by value, after a list is mutated too."""
        reg = metrics.MetricsRegistry()
        bounds = [1, 2]
        reg.observe("h", 1.0, bounds=bounds)
        reg.observe("h", 1.5, bounds=(1.0, 2.0))
        reg.observe("h", 1.5, bounds=[1.0, 2])
        with pytest.raises(ValueError):
            reg.observe("h", 1.0, bounds=(1.0, 3.0))
        bounds[1] = 3
        with pytest.raises(ValueError):
            reg.observe("h", 1.0, bounds=bounds)
        merged = metrics.MetricsRegistry()
        merged.merge_snapshot(reg.snapshot())
        merged.observe("h", 1.0, bounds=(1, 2))
        with pytest.raises(ValueError):
            merged.observe("h", 1.0, bounds=(1.0, 2.5))
        assert merged.snapshot()["histograms"]["h"]["count"] == 4

    def test_disabled_registry_is_a_noop(self):
        reg = metrics.MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.observe_duration("t", 1.0)
        reg.observe("h", 1.0, bounds=(1.0,))
        assert metrics.snapshot_is_empty(reg.snapshot())

    def test_empty_kinds_omitted_from_snapshot(self):
        reg = metrics.MetricsRegistry()
        reg.inc("only.counter")
        snap = reg.snapshot()
        assert set(snap) == {"counters"}


class TestMerge:
    def _snap(self, counter, duration):
        reg = metrics.MetricsRegistry()
        reg.inc("c", counter)
        reg.observe_duration("t", duration)
        reg.observe("h", duration, bounds=(0.5,))
        return reg.snapshot()

    def test_merge_is_commutative_for_the_stable_view(self):
        a, b = self._snap(1, 0.1), self._snap(2, 0.9)
        ab = metrics.merge_snapshots(a, b)
        ba = metrics.merge_snapshots(b, a)
        assert ab == ba  # identical throughout, not only the stable view
        assert ab["counters"] == {"c": 3}
        assert ab["timers"]["t"]["count"] == 2
        assert ab["timers"]["t"]["min_s"] == pytest.approx(0.1)
        assert ab["timers"]["t"]["max_s"] == pytest.approx(0.9)
        assert ab["histograms"]["h"]["count"] == 2

    def test_merge_is_associative(self):
        a, b, c = self._snap(1, 0.1), self._snap(2, 0.2), self._snap(4, 0.4)
        left = metrics.merge_snapshots(metrics.merge_snapshots(a, b), c)
        right = metrics.merge_snapshots(a, metrics.merge_snapshots(b, c))
        assert left == right

    def test_merge_tolerates_none_and_empty(self):
        snap = self._snap(1, 0.1)
        merged = metrics.merge_snapshots(None, {}, snap, None)
        assert merged["counters"] == {"c": 1}

    def test_repeated_snapshot_object_folds_like_one_by_one(self):
        """A repeated gauge-free snapshot object is folded once, scaled;
        interleaved with a gauge snapshot the result equals the naive
        one-by-one fold, gauges and key order included.  Durations are
        dyadic, so the scaled float sums are exact too."""
        shared = self._snap(3, 0.25)
        reg = metrics.MetricsRegistry()
        reg.inc("c", 1)
        reg.inc("g.only")
        reg.gauge("g", 7)
        reg.observe_duration("t", 0.5)
        gauged = reg.snapshot()
        snaps = [shared, gauged, shared, None, shared, gauged, shared]

        naive = metrics.MetricsRegistry()
        for snap in snaps:
            naive.merge_snapshot(snap)
        merged = metrics.merge_snapshots(*snaps)
        assert merged == naive.snapshot()
        assert list(merged["counters"]) == list(naive.snapshot()["counters"])
        assert merged["counters"] == {"c": 4 * 3 + 2, "g.only": 2}
        assert merged["gauges"] == {"g": 7}
        assert merged["timers"]["t"]["count"] == 4 + 2
        assert merged["histograms"]["h"]["counts"] == [4, 0]

    def test_counted_observation_equals_repeated_ones(self):
        counted, repeated = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        counted.observe("h", 0.75, bounds=(0.5, 1.0), count=4)
        for _ in range(4):
            repeated.observe("h", 0.75, bounds=(0.5, 1.0))
        assert counted.snapshot() == repeated.snapshot()

    def test_stable_view_drops_wall_clock_fields(self):
        view = metrics.stable_view(self._snap(3, 0.25))
        assert view == {
            "counters": {"c": 3},
            "timer_counts": {"t": 1},
            "histogram_counts": {"h": 1},
        }


class TestCaptureContext:
    def test_capture_isolates_and_does_not_auto_merge(self):
        outer = metrics.MetricsRegistry()
        with metrics.capture(outer):
            metrics.inc("outer.event")
            with metrics.capture() as inner:
                metrics.inc("inner.event")
            # The inner capture stayed local to its registry.
            assert inner.counter("inner.event") == 1
            assert outer.counter("inner.event") == 0
            # Explicit merge is the supported way to surface a capture.
            metrics.merge_into_active(inner.snapshot())
        assert outer.counter("inner.event") == 1
        assert outer.counter("outer.event") == 1

    def test_module_conveniences_hit_the_active_registry(self):
        with metrics.capture() as reg:
            metrics.inc("c")
            metrics.gauge("g", 1.0)
            metrics.observe_duration("t", 0.1)
            metrics.observe("h", 0.1, bounds=(1.0,))
            with metrics.span("s"):
                pass
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1}
        assert set(snap["timers"]) == {"t", "s"}
        assert set(snap["histograms"]) == {"h"}


class TestFormatting:
    def test_format_hot_paths_orders_by_total_time(self):
        reg = metrics.MetricsRegistry()
        reg.observe_duration("cold", 0.1)
        reg.observe_duration("hot", 5.0)
        line = metrics.format_hot_paths(reg.snapshot(), top=1)
        assert "hot" in line and "cold" not in line

    def test_format_hot_paths_empty(self):
        assert metrics.format_hot_paths({}) == "no timed hot paths"
