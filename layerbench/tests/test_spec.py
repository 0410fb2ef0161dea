"""BENCHMARK.json is well formed, and the harness emits exactly what it declares."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from layerbench import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["layerbench"]
    assert [w["name"] for w in SPEC["workloads"]] == [
        "live_steady", "live_leader_kill", "sim_steady", "sim_batched"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_metric_names_units_and_bounds():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in metrics:
        assert run.METRIC_NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert not run.METRIC_NAME.match("has space") and not run.METRIC_NAME.match("-leading")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_not_measured_names_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for names in run.NOT_MEASURED.values():
        assert set(names) <= declared


@pytest.mark.parametrize("trace_flag, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_smoke_run_emits_exactly_the_declared_names(trace_flag, section):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "layerbench" / "run.py"), "--workload", "sim_steady",
         "--smoke", "--seed", "5", "--trace", trace_flag],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC[section]}
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(set(v) == {"value", "unit"} and v["unit"] == units[k]
               for k, v in last["metrics"].items())
