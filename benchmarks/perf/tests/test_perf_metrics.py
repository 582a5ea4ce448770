"""The percentile rule, the spread, and the comparison verdicts."""

import pytest

import metrics


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert metrics.supported_percentile(n) == expected


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert metrics.percentile(values, 0) == 1.0
    assert metrics.percentile(values, 50) == 2.5
    assert metrics.percentile(values, 100) == 4.0
    assert metrics.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_timing_summary_reports_count_and_supported_tail():
    summary = metrics.timing_summary([float(i) for i in range(1, 201)])
    assert summary["n"] == 200
    assert summary["tail_percentile"] == 95.0
    assert summary["p50_ms"] == pytest.approx(100.5)
    assert summary["tail_ms"] == pytest.approx(190.05)
    assert metrics.timing_summary([1.0, 2.0])["tail_ms"] is None


def test_geomean_and_spread():
    assert metrics.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert metrics.spread([5.0]) == 0.0
    values = [10.0, 10.0, 10.0, 10.0, 12.0, 8.0, 10.0, 10.0, 11.0, 9.0]
    assert 0.0 < metrics.spread(values) < 0.2


CONTRACT = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
}


def document(lat, rate):
    return {
        "runs": [
            {"workload": "w", "trace": 0,
             "metrics": {"lat_ms": {"value": a, "unit": "ms"},
                         "rate": {"value": b, "unit": "1/s"}}}
            for a, b in zip(lat, rate)
        ]
        + [{"workload": "w", "trace": 1, "metrics": {"x.y": {"value": 1, "unit": "s"}}}]
    }


def verdicts(base, other):
    return {r["metric"]: r for r in metrics.compare(base, other, CONTRACT)}


def test_compare_pass_fail_and_direction():
    base = document([100.0] * 5, [50.0] * 5)
    same = verdicts(base, document([105.0] * 5, [47.0] * 5))
    assert same["lat_ms"]["verdict"] == "PASS"
    assert same["lat_ms"]["ratio"] == pytest.approx(1.05)
    assert same["rate"]["verdict"] == "PASS"
    worse = verdicts(base, document([115.0] * 5, [40.0] * 5))
    assert worse["lat_ms"]["verdict"] == "FAIL"
    assert worse["rate"]["verdict"] == "FAIL"
    better = verdicts(base, document([50.0] * 5, [90.0] * 5))
    assert better["lat_ms"]["verdict"] == "PASS"
    assert better["rate"]["verdict"] == "PASS"


def test_compare_reports_noise_as_unresolved_not_unchanged():
    base = document([100.0] * 5, [50.0] * 5)
    noisy = document([70.0, 90.0, 100.0, 120.0, 140.0], [50.0] * 5)
    rows = verdicts(base, noisy)
    assert rows["lat_ms"]["verdict"] == "UNRESOLVED"
    assert rows["rate"]["verdict"] == "PASS"
    assert rows["lat_ms"]["runs"] == (5, 5)
