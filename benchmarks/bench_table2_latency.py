"""E2 — Table II: the latency cost of confidentiality.

Reproduces the paper's headline comparison: Spire 1.2 vs Confidential
Spire at f=1 and f=2 (two control centers + two data centers, ten clients
at one update per second). The paper's absolute numbers (on their
testbed):

    Spire        f=1  3+3+3+3  avg 51.7 ms   p0.1 39.7  p50 51.7  p99.9 63.9
    Spire        f=2  5+5+5+4  avg 54.4 ms   p0.1 42.5  p50 54.4  p99.9 67.7
    Confidential f=1  4+4+3+3  avg 53.6 ms   p0.1 41.6  p50 53.6  p99.9 66.1
    Confidential f=2  6+6+5+4  avg 61.2 ms   p0.1 46.0  p50 61.1  p99.9 86.2

This file is the checked reference for that table (CI runs it in the
``faultlab-sweep`` job; ≈2 min). What holds is asserted hard: every
average within ``AVERAGE_BAND_MS`` of the paper's, Spire f=1 <
Confidential f=1 < Spire f=2 < Confidential f=2, the confidentiality
overhead positive and growing with f, data centers dark only in
confidential mode. The two paper claims the code does *not* meet today —
100 % of updates under 100 ms in all four configurations, and no view
change in a fault-free run — are strict xfails: the change that fixes
Prime's spurious view changes (ROADMAP QuietPrime (b)) has to delete the
markers.
"""

from typing import Dict, NamedTuple, Tuple

import pytest

from repro.system import Mode
from repro.system.metrics import LatencyStats

from benchmarks.conftest import TABLE2_DURATION, record_result, run_latency_config

PAPER_ROWS = {
    ("spire", 1): ("3+3+3+3", 51.7),
    ("spire", 2): ("5+5+5+4", 54.4),
    ("confidential", 1): ("4+4+3+3", 53.6),
    ("confidential", 2): ("6+6+5+4", 61.2),
}
PAPER_OVERHEAD_MS = {1: 1.9, 2: 6.8}

#: Every configuration's average must land this close to the paper's.
#: Only Spire f=1 is calibrated (docs/CALIBRATION.md); the other three are
#: emergent and sit 1.5-2.2 ms above the paper.
AVERAGE_BAND_MS = 2.5


class Row(NamedTuple):
    """What the table and the assertions need from one 60 s run (the
    deployment itself is dropped: four of them do not fit comfortably)."""

    label: str
    stats: LatencyStats
    view_changes: int
    exposed_data_centers: bool


_rows: Dict[Tuple[str, int], Row] = {}


def _measure(mode: Mode, f: int) -> Row:
    deployment, stats = run_latency_config(mode, f)
    adopted = sum(
        value
        for (name, _labels), value in deployment.metrics.counter_values().items()
        if name == "prime.view_change.adopted"
    )
    exposed = deployment.auditor.exposed_hosts & set(deployment.data_center_hosts)
    return Row(deployment.plan.label(), stats, int(adopted), bool(exposed))


def _row(mode_name: str, f: int) -> Row:
    """The configuration's run, made on first use (so any single test of
    this file can run alone)."""
    key = (mode_name, f)
    if key not in _rows:
        _rows[key] = _measure(Mode(mode_name), f)
    return _rows[key]


def _run(benchmark, mode: Mode, f: int) -> None:
    key = (mode.value, f)
    _rows[key] = row = benchmark.pedantic(
        _measure, args=(mode, f), rounds=1, iterations=1
    )
    label, paper_avg = PAPER_ROWS[key]
    assert row.label.startswith(label)
    print(row.stats.row(f"{mode.value} f={f} ({label})") + f"   | paper avg {paper_avg} ms")
    assert abs(row.stats.average * 1000 - paper_avg) <= AVERAGE_BAND_MS
    # Confidential Spire keeps data centers dark; Spire does not.
    assert row.exposed_data_centers == (mode is Mode.SPIRE)


def test_spire_f1(benchmark):
    _run(benchmark, Mode.SPIRE, 1)


def test_spire_f2(benchmark):
    _run(benchmark, Mode.SPIRE, 2)


def test_confidential_f1(benchmark):
    _run(benchmark, Mode.CONFIDENTIAL, 1)


def test_confidential_f2(benchmark):
    _run(benchmark, Mode.CONFIDENTIAL, 2)


def test_table2_shape(benchmark):
    """Cross-configuration assertions + emit the final table."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    s1, s2 = _row("spire", 1).stats, _row("spire", 2).stats
    c1, c2 = _row("confidential", 1).stats, _row("confidential", 2).stats

    lines = [
        "Table II — update latency, ours vs paper "
        f"({int(TABLE2_DURATION)} s runs, 10 clients @ 1/s):",
        "",
    ]
    for key, (label, paper_avg) in PAPER_ROWS.items():
        lines.append(
            _row(*key).stats.row(f"{key[0]} f={key[1]} ({label})")
            + f"  | paper avg {paper_avg}"
        )
    overhead_f1 = (c1.average - s1.average) * 1000
    overhead_f2 = (c2.average - s2.average) * 1000
    lines.append("")
    lines.append(
        f"confidentiality overhead: f=1 {overhead_f1:+.2f} ms "
        f"(paper +{PAPER_OVERHEAD_MS[1]}), "
        f"f=2 {overhead_f2:+.2f} ms (paper +{PAPER_OVERHEAD_MS[2]})"
    )
    lines.append(
        "view changes adopted (fault-free run, should be 0): "
        + ", ".join(f"{k[0]} f={k[1]} {_row(*k).view_changes}" for k in PAPER_ROWS)
    )
    record_result("table2", lines)
    for line in lines:
        print(line)

    # Who wins and in what order (the paper's qualitative claims).
    assert s1.average < c1.average < s2.average < c2.average
    assert 0.0 < overhead_f1 < overhead_f2, "overhead is positive and grows with f"


@pytest.mark.xfail(
    strict=True,
    reason="regressed at d4ea410 (FaultLab's view-change rules), clean at "
    "c1483ea (ROADMAP QuietPrime (b)): Spire f=2 98.67 % (p99 132 ms), "
    "Confidential f=1 99.67 %, Confidential f=2 97.34 % (p99.9 253 ms); "
    "only Spire f=1 is at 100 %",
)
def test_every_update_under_100ms():
    """The SCADA timing requirement (paper: 100 % in all four)."""
    for key in PAPER_ROWS:
        assert _row(*key).stats.pct_under_100ms == 100.0, key


@pytest.mark.xfail(
    strict=True,
    reason="Spire f=2 (seed 3, no faults) changes view three times: 57 "
    "prime.view_change.adopted = 3 x 19 replicas, after which lagging "
    "replicas run state transfer; the >100 ms updates sit at those "
    "instants. Confidential f=2: 126 adoptions (ROADMAP QuietPrime (b))",
)
def test_no_view_change_without_faults():
    for key in PAPER_ROWS:
        assert _row(*key).view_changes == 0, key
