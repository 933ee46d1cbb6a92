import statistics

import pytest

import stats


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values) == 3.5


def test_single_value_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


@pytest.mark.parametrize("n, expected", [
    (10, None),           # no percentile has 10 samples above it
    (19, None),           # p50 is rank 10: only 9 above
    (20, (50.0, 10)),
    (100, (90.0, 90)),
    (1000, (99.0, 990)),
    (10010, (99.9, 10000)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))          # order must not matter
    assert stats.tail_percentile(values) == expected
    if expected is not None:
        assert sum(v > expected[1] for v in values) >= 10
