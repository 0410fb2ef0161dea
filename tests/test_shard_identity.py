"""Golden trace fingerprints: the sim's byte-identity safety net.

The goldens pin the exact trace bytes of the named reference runs in
scripts/trace_fingerprint.py — one per protocol path a refactor can
disturb (singleton and batched introduction, the Spire baseline's plain
path, delta-chain state transfer, key renewal, disk-first recovery).
``build_sharded`` with ``shards=1`` must reproduce the two singleton runs
bit-for-bit as well: the inert routing tier may not reorder a single
kernel event, draw one extra random number, or touch a hostname. If an
intentional sim change moves the goldens, re-baseline with
``python scripts/trace_fingerprint.py`` (it prints this table) — in a
commit that says so.
"""

import importlib.util
import sys
from pathlib import Path

from repro.shard.builder import build_sharded

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_fingerprint.py"
_spec = importlib.util.spec_from_file_location("trace_fingerprint", _SCRIPT)
trace_fingerprint = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = trace_fingerprint  # dataclasses resolve the module by name
_spec.loader.exec_module(trace_fingerprint)

REFERENCE_RUNS = trace_fingerprint.REFERENCE_RUNS
run_events = trace_fingerprint.run_events
fingerprint = trace_fingerprint.fingerprint

GOLDEN = {
    "singleton-s19": "4377d89a852bb06f810f7e96d16129c9f8dac3e54d9efca0c3ee93dceb52de12",
    "singleton-s7": "ff1f6f35e540c5930325e8de6dc0f63f0e3447bc166e7bcf30720d5d3c288570",
    "batched": "9741a39252169262e44fc557175d7b716632680216185d3e07a806ce71f1e4a0",
    "spire": "d8e606de4dfa1146792b3f6a4d1726aba8cbd0a8f936ebdf03fd51a917439146",
    "delta-recovery": "68acde15dcaed2fd04700c2c3321040a85f95b703e2d4b6c2f6831bb78ef52a7",
    "key-renewal": "2a52eeece1968503bbb7fe578e995cce4d5445e2757617fea3a7a806a30cea53",
    "disk-recovery": "8869cbe6e817c98a374a24294f8b413c2447e9f1ccdcd686783efab5653438f3",
}

SINGLETON = ("singleton-s19", "singleton-s7")


def test_every_reference_run_has_a_golden():
    assert sorted(GOLDEN) == sorted(REFERENCE_RUNS)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_classic_build_matches_golden(name):
    assert fingerprint(run_events(REFERENCE_RUNS[name])) == GOLDEN[name]


@pytest.mark.parametrize("name", SINGLETON)
def test_single_shard_build_matches_golden(name):
    """shards=1 through the sharded builder reproduces the same bytes."""
    run = REFERENCE_RUNS[name]
    assert run.config().shards == 1
    assert fingerprint(run_events(run, builder=build_sharded)) == GOLDEN[name]


def test_single_shard_trace_is_event_for_event_identical():
    """Not just the same hash: the same events, in the same order."""
    run = REFERENCE_RUNS["singleton-s7"]
    classic = run_events(run)
    sharded = run_events(run, builder=build_sharded)
    assert len(classic) == len(sharded)
    for a, b in zip(classic, sharded):
        assert repr(a) == repr(b)
