import pytest

from layerbench.result import (
    RunResult,
    failed_check,
    latency_layer_metrics,
    percentiles_ms,
    quietest_window_percentiles_ms,
)


def test_quietest_window_picks_the_undisturbed_stretch():
    # 12 s of one sample every 0.25 s: a quiet 4 s window between two
    # disturbed ones. Over all samples the median is inflated; the quietest
    # window reports the program's own 100 ms.
    samples = []
    for i in range(48):
        t = i * 0.25
        disturbed = t < 4.0 or t >= 8.0
        samples.append((100.0 + t, 0.300 if disturbed else 0.100))
    assert percentiles_ms([l for _t, l in samples])[0] == pytest.approx(300.0)
    assert quietest_window_percentiles_ms(samples) == (pytest.approx(100.0), pytest.approx(100.0))


def test_windows_with_too_few_samples_do_not_count_and_short_runs_fall_back():
    # The sparse window [4, 8) holds two fast samples: ignored.
    samples = [(t * 0.5, 0.2) for t in range(8)] + [(4.1, 0.01), (4.2, 0.01)]
    assert quietest_window_percentiles_ms(samples)[0] == pytest.approx(200.0)
    # Fewer samples than any window needs: all of them form the one window.
    short = [(0.0, 0.1), (0.1, 0.3)]
    assert quietest_window_percentiles_ms(short)[0] == pytest.approx(200.0)


def test_latency_layer_metrics_names_and_counts():
    layer = latency_layer_metrics([0.001 * i for i in range(1, 101)], tail_ms=77.0)
    assert layer["latency.samples"] == 100 and layer["latency.samples_beyond_tail"] == 20
    assert layer["latency.p50_all_ms"] == pytest.approx(50.5) and layer["latency.p80_ms"] == 77.0
    assert set(layer) == {"latency.p80_ms", "latency.samples", "latency.samples_beyond_tail",
                          "latency.p50_all_ms", "latency.p80_all_ms", "proxy.latency_p90_ms",
                          "proxy.latency_p99_ms"}


def test_failed_check_threshold():
    ok = RunResult("w", attempted=1000, failed=5, end_to_end={})
    failed_check(ok)
    bad = RunResult("w", attempted=1000, failed=6, end_to_end={})
    failed_check(bad)
    none = RunResult("w", attempted=0, failed=0, end_to_end={})
    failed_check(none)
    assert ok.correct and not bad.correct and not none.correct
