import statistics

import pytest

import spine_paths  # noqa: F401  (puts the harness and src/ on sys.path)

from spinebench import stats


@pytest.mark.parametrize(
    "count, expected",
    [(0, 0), (10, 0), (19, 47), (20, 50), (113, 91), (199, 94), (200, 95), (1000, 99), (10**6, 99)],
)
def test_tail_rule_wants_ten_samples_beyond(count, expected):
    assert stats.supported_percentile(count) == expected
    if expected:
        assert count * (1 - expected / 100) >= stats.TAIL_SAMPLES
        if expected < 99:
            assert count * (1 - (expected + 1) / 100) < stats.TAIL_SAMPLES


def test_spread_is_the_pipelines_rule():
    values = [10.0, 11.0, 9.5, 10.5, 10.2, 9.9, 10.1, 10.3, 9.8, 10.4]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
