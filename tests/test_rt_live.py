"""End-to-end: a real multi-process deployment completes a small workload.

This spawns the full f=1 fleet (14 replica processes + client processes)
over localhost TCP, so it is the slowest test in the suite — but it is the
only one that proves the launcher, the node processes, the wire format,
and the observability merge actually compose.
"""

import json
from pathlib import Path

import pytest

from repro.rt.bootstrap import RtConfig
from repro.rt.launcher import run_deployment


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    out = tmp_path_factory.mktemp("rt-live")
    config = RtConfig(
        seed=5,
        num_clients=2,
        updates_per_client=3,
        update_interval=0.05,
        base_port=21000,
        out_dir=str(out),
    )
    summary = run_deployment(config, timeout=90.0)
    return out, summary


def test_workload_completes(deployment):
    _, summary = deployment
    assert summary["finished"]
    assert summary["clients"] == 2
    assert summary["updates_completed"] == summary["updates_submitted"] == 6
    assert summary["latency_p50"] > 0


def test_clients_report_threshold_verified_replies(deployment):
    out, _ = deployment
    for path in sorted((out / "clients").glob("*.json")):
        result = json.loads(path.read_text())
        assert result["completed"] == result["updates"]
        assert not result["gave_up"]
        assert len(result["latencies"]) == result["updates"]


def test_merged_bundle_is_well_formed(deployment):
    out, summary = deployment
    merged = Path(summary["merged_bundle"]["metrics.prom"]).parent
    for name in ("metrics.prom", "metrics.jsonl", "spans.jsonl",
                 "trace.jsonl", "trace.json"):
        assert (merged / name).is_file(), name
    prom = (merged / "metrics.prom").read_text()
    # Counters from every layer made it through the per-process merge.
    for prefix in ("net_", "prime_", "intro_", "proxy_", "crypto_"):
        assert prefix in prom, f"missing {prefix} metrics in merged bundle"


def test_every_node_persisted_artifacts(deployment):
    out, _ = deployment
    node_dirs = sorted(p for p in (out / "nodes").iterdir() if p.is_dir())
    assert len(node_dirs) >= 14  # the f=1 replica fleet at minimum
    for node_dir in node_dirs:
        assert (node_dir / "metrics.prom").is_file(), node_dir.name
        assert (node_dir / "trace.jsonl").is_file(), node_dir.name


def test_key_files_are_private_and_stay_out_of_the_bundle(deployment):
    out, summary = deployment
    keys = sorted((out / "keys").glob("*.json"))
    assert len(keys) == 14 + 2  # one per replica and per client
    for path in keys:
        assert path.stat().st_mode & 0o777 == 0o600, path.name
    secret = json.loads((out / "keys" / "cc-a-r0.json").read_text())["secrets"]
    needle = secret["identity_key"]["d"]
    merged = Path(summary["merged_bundle"]["metrics.prom"]).parent
    for path in merged.rglob("*"):
        assert needle not in path.read_text(errors="replace"), path.name
