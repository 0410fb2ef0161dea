import json

from layerbench.compare import compare, verdict

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def test_verdict_ok_regressed_and_direction():
    assert verdict([100.0], [105.0], 0.1, "lower") == ("ok", 0.05)
    status, change = verdict([100.0], [120.0], 0.1, "lower")
    assert status == "regressed" and round(change, 6) == 0.2
    # An improvement is never a regression, however large.
    assert verdict([100.0], [50.0], 0.1, "lower")[0] == "ok"
    assert verdict([100.0], [80.0], 0.1, "higher")[0] == "regressed"
    assert verdict([100.0], [130.0], 0.1, "higher")[0] == "ok"


def test_verdict_is_unresolved_when_a_side_is_noisier_than_the_bound():
    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    noisy = [80.0, 100.0, 120.0, 140.0, 90.0]
    assert verdict(steady, noisy, 0.1, "lower")[0] == "unresolved"
    assert verdict(noisy, steady, 0.1, "lower")[0] == "unresolved"
    # Fewer than four runs: no spread estimate, so the medians decide.
    assert verdict(noisy[:3], steady[:3], 0.1, "lower")[0] == "ok"


def _runs(path, lat, rate, smoke=False):
    runs = [{"workload": "w", "smoke": smoke, "end_to_end": {"lat_ms": l, "rate": r}}
            for l, r in zip(lat, rate)]
    path.write_text(json.dumps(runs))
    return str(path)


def test_compare_reports_every_pair_and_skips_smoke_runs(tmp_path):
    a = _runs(tmp_path / "a.json", [100.0, 102.0], [50.0, 50.0])
    b = _runs(tmp_path / "b.json", [130.0, 132.0], [50.0, 51.0])
    lines, all_ok = compare(a, b, SPEC)
    assert not all_ok
    assert len(lines) == 3
    assert lines[1].endswith("regressed") and "lat_ms" in lines[1]
    assert lines[2].endswith("ok") and "rate" in lines[2]

    smoke = _runs(tmp_path / "s.json", [999.0], [1.0], smoke=True)
    lines, all_ok = compare(a, smoke, SPEC)
    assert len(lines) == 1 and all_ok
