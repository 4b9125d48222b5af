"""Percentiles, the tail-percentile rule and the end-to-end fold."""

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # the median of 19 has only 9 samples beyond it
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),  # 40 - 30 = 10 beyond p75
        (80, 75.0),  # p90 would leave 8
        (100, 90.0),
        (120, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_percentile_is_a_smooth_order_statistic_average():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 50) == pytest.approx(3.0)  # symmetric
    assert stats.percentile([7.0] * 9, 90) == pytest.approx(7.0)
    assert stats.percentile([2.5], 75) == 2.5
    ramp = list(range(1, 102))
    estimates = [stats.percentile(ramp, q) for q in stats.TAIL_LADDER]
    assert estimates == sorted(estimates)
    assert 1 <= estimates[0] and estimates[-1] <= 101
    assert stats.percentile(ramp, 95) == pytest.approx(96.0, abs=1.0)
    # moving one sample across a gap between two clusters moves the median
    # by a fraction of the gap, not all the way across it
    upper = [1.0] * 20 + [2.0] * 21
    lower = [1.0] * 21 + [2.0] * 20
    assert 1.3 < stats.percentile(lower, 50) < stats.percentile(upper, 50) < 1.7
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_latency_summary_records_percentile_and_count():
    latencies = [i / 1000 for i in range(1, 121)]  # 1..120 ms
    summary = stats.latency_summary(latencies)
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_beyond"] == 12
    assert summary["tail_ms"] == pytest.approx(108.9, abs=0.5)
    assert summary["p50_ms"] == pytest.approx(60.5, abs=0.01)
    assert summary["samples"] == 120


def _pass(latencies, failures=(), setup_s=1.0, mode="pass"):
    ops = [
        {"key": str(i), "latency_s": lat, "failure": None}
        for i, lat in enumerate(latencies)
    ]
    for index in failures:
        ops[index]["failure"] = "wrong"
    return {
        "mode": mode,
        "ops": ops,
        "wall_s": sum(latencies),
        "cpu_s": sum(latencies) / 2,
        "setup_s": setup_s,
        "peak_rss_mb": 100.0 + setup_s,
    }


def test_end_to_end_folds_passes_and_setups():
    passes = [
        _pass([0.1] * 20, failures=[3], setup_s=2.0),
        _pass([0.3] * 20, setup_s=1.0),
        {"mode": "setup", "setup_s": 5.0, "peak_rss_mb": 50.0},
    ]
    metrics, detail = stats.end_to_end(passes)
    assert set(metrics) == {
        "wall_s", "cpu_s", "throughput_ops_s", "latency_p50_ms",
        "latency_tail_ms", "success_ratio", "peak_rss_mb", "setup_s",
    }
    assert metrics["wall_s"]["value"] == pytest.approx(8.0)
    assert metrics["cpu_s"]["value"] == pytest.approx(4.0)
    assert metrics["throughput_ops_s"]["value"] == pytest.approx(40 / 8.0)
    assert metrics["success_ratio"]["value"] == pytest.approx(39 / 40)
    assert metrics["setup_s"]["value"] == 2.0  # median of 2, 1 and 5
    assert metrics["peak_rss_mb"]["value"] == 102.0
    assert detail["failed"] == 1 and detail["fail_ratio"] == pytest.approx(1 / 40)
    assert detail["latency_tail"] == {
        "percentile": 75.0, "samples_beyond": 10, "samples": 40,
    }
    assert all(m["value"] > 0 for m in metrics.values())
