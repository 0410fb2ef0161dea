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
    "singleton-s19": "b341ab2eb354e6472509cbc8a6b36eb17dc02acf02f14f7773caeccdbd99a553",
    "singleton-s7": "006b3ef2f0f1a92de8bb2c2c188aef40016dcd812d7a8bed42f4bf0ceff66a91",
    "batched": "e017d3046763ffcb7cac45aa1e4af8a698ab7be2160604980ae04697661b6226",
    "spire": "ebf6b55a08d5a2156cb15450d4ea93d261236fbe20be832d0e0d77e6b5c746ad",
    "delta-recovery": "9177ac36b262130ee1891e0b0aa6c44a15a59cbaf0b3debefe415b045b6f3b3a",
    "key-renewal": "565300eb3d315f3e876d1cbe2e8cb8f7f8be53a42bc6f6779a2dc56d8a1018a4",
    "disk-recovery": "309573af76e8e1463fd81ef4fb31d9dd9e0e735ee11bdfef0113eeefa52bc77b",
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
