import pytest

from ledger import compare, spec

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_consistent_gain_is_better():
    change = [v * 1.05 for v in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.10) == "better"
    assert compare.verdict(PARENT, [v * 0.95 for v in PARENT], "lower", 0.10) == "better"


def test_gain_needs_nine_of_ten_wins():
    change = [v * 1.05 for v in PARENT]
    change[0], change[1] = PARENT[0] - 1, PARENT[1] - 1
    assert compare.verdict(PARENT, change, "higher", 0.10) == "unchanged"


def test_gain_needs_gap_wider_than_parent_iqr():
    # Wins every pair, but by less than the parent's own spread.
    change = [v + 0.05 for v in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.10) == "unchanged"


def test_regression_beyond_bound_is_worse():
    assert compare.verdict(PARENT, [v * 0.85 for v in PARENT], "higher", 0.10) == "worse"
    assert compare.verdict(PARENT, [v * 0.95 for v in PARENT], "higher", 0.10) == "unchanged"
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.15) == "worse"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "higher", 0.10) == "unresolved"
    # ... unless every change run beats every parent run.
    better = [v + 100.0 for v in noisy]
    assert compare.verdict(noisy, better, "higher", 0.10) != "unresolved"


def test_mismatched_run_counts_are_rejected():
    with pytest.raises(ValueError):
        compare.verdict(PARENT, PARENT[:-1], "higher", 0.10)


def _set(scale, failed=0):
    runs = []
    for i, base in enumerate(PARENT):
        metrics = {
            m.name: {"value": base * (scale if m.better == "higher" else 1 / scale), "unit": m.unit}
            for m in spec.END_TO_END
        }
        runs.append({"workload": "multicore_des", "seed": i, "trace": 0,
                     "failed": failed, "metrics": metrics})
    return {"multicore_des": runs}


def test_compare_sets_reports_each_metric_and_blocks_gains_with_new_failures():
    rows = compare.compare_sets(_set(1.0), _set(1.2))
    assert [row["metric"] for row in rows] == [m.name for m in spec.END_TO_END]
    assert {row["verdict"] for row in rows} == {"better"}
    rows = compare.compare_sets(_set(1.0), _set(1.2, failed=1))
    assert {row["verdict"] for row in rows} == {"unchanged"}
    assert all(row["failures_rose"] for row in rows)
