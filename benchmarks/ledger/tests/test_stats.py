import statistics

import pytest

from ledger import stats


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 1.0) == 4.0
    assert stats.percentile(values, 0.5) == pytest.approx(2.5)
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize("n", [20, 21, 24, 30, 99, 100, 101, 999, 1000, 1001, 8000])
def test_tail_quantile_keeps_ten_samples_beyond(n):
    q = stats.tail_quantile(n)
    assert 0.5 <= q <= stats.MAX_TAIL_QUANTILE
    assert stats.samples_beyond(n, q) >= stats.TAIL_SAMPLES_BEYOND
    # Highest such quantile: one rank further would leave fewer than ten
    # samples beyond it, unless p99 already capped it.
    if q < stats.MAX_TAIL_QUANTILE:
        assert stats.samples_beyond(n, q + 1.0 / n) < stats.TAIL_SAMPLES_BEYOND


def test_tail_quantile_caps_at_p99_and_floors_at_median():
    assert stats.tail_quantile(8000) == stats.MAX_TAIL_QUANTILE
    assert stats.tail_quantile(5) == 0.5


def test_tail_on_data_has_ten_larger_samples():
    values = list(range(24))
    tail = stats.percentile(values, stats.tail_quantile(len(values)))
    assert sum(1 for v in values if v > tail) == 10


def test_summary_uses_statistics_quartiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    got = stats.summary(values)
    assert got["median"] == statistics.median(values)
    assert (got["q1"], got["q3"], got["iqr"], got["n"]) == (q1, q3, q3 - q1, 6)
    assert stats.summary([3.0])["iqr"] == 0.0
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
