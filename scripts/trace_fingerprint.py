#!/usr/bin/env python3
"""Print the sim trace fingerprints of the named reference runs.

A fingerprint is the sha256 over the ``repr`` of every trace event of a
short deterministic run; it pins the exact byte-level behaviour of the
simulation. :data:`REFERENCE_RUNS` names one run per protocol path a
refactor can disturb — singleton and batched introduction, the Spire
baseline's plain path, state transfer with a delta chain, key renewal,
and disk-first recovery — and tests/test_shard_identity.py holds their
golden values.

    python scripts/trace_fingerprint.py            # every run, "name hash"
    python scripts/trace_fingerprint.py batched    # only the named ones
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.system.builder import build
from repro.system.config import SystemConfig


@dataclass(frozen=True)
class ReferenceRun:
    """One pinned run: config overrides on the shared base, how long the
    workload runs, and the proactive recoveries scheduled into it as
    ``(host, at_time, outage_seconds)``."""

    seed: int
    clients: int
    duration: float
    overrides: Dict[str, Any] = field(default_factory=dict)
    recoveries: Tuple[Tuple[str, float, float], ...] = ()
    #: Give every replica a FileStore so recovery reads the disk first.
    durable: bool = False

    def config(self, store_dir: Optional[str] = None) -> SystemConfig:
        extra = dict(self.overrides)
        if self.durable:
            extra.update(store_dir=store_dir, store_fsync="never")
        return SystemConfig(
            **{
                "seed": self.seed,
                "f": 1,
                "num_clients": self.clients,
                "update_interval": 0.4,
                "checkpoint_interval": 20,
                **extra,
            }
        )


REFERENCE_RUNS: Dict[str, ReferenceRun] = {
    # The two original goldens: default singleton confidential config.
    "singleton-s19": ReferenceRun(seed=19, clients=3, duration=6.0),
    "singleton-s7": ReferenceRun(seed=7, clients=2, duration=5.0),
    # Batched introduction and batched response certification; an
    # executing replica recovers mid-run and replays signed batches.
    "batched": ReferenceRun(
        seed=19, clients=6, duration=4.0,
        overrides=dict(
            intro_batch_size=8, intro_batch_window=0.05, update_interval=0.1
        ),
        recoveries=(("cc-b-r1", 2.0, 1.0),),
    ),
    # Spire baseline: plain path, every replica executing; a data-center
    # replica restores a plaintext checkpoint and replays plain updates.
    "spire": ReferenceRun(
        seed=19, clients=3, duration=6.0,
        overrides=dict(mode="spire", update_interval=0.2, checkpoint_interval=10),
        recoveries=(("dc-1-r0", 2.5, 1.5),),
    ),
    # Delta checkpoint chain + state transfer: an executing and then a
    # storage replica recover over the network (full + deltas + log tail).
    "delta-recovery": ReferenceRun(
        seed=19, clients=3, duration=7.0,
        overrides=dict(
            update_interval=0.1, checkpoint_interval=10, checkpoint_delta_interval=3
        ),
        recoveries=(("cc-a-r1", 2.5, 1.5), ("dc-2-r0", 5.0, 1.5)),
    ),
    # Key renewal rounds, with a recovery that restores key schedules and
    # pending proposals from the encrypted checkpoint.
    "key-renewal": ReferenceRun(
        seed=19, clients=2, duration=6.0,
        overrides=dict(
            update_interval=0.1, checkpoint_interval=10,
            key_renewal_enabled=True, key_validity=15, key_slack=2,
        ),
        recoveries=(("cc-b-r0", 3.0, 1.5),),
    ),
    # Disk-first recovery from a FileStore holding a delta chain.
    "disk-recovery": ReferenceRun(
        seed=19, clients=3, duration=7.0,
        overrides=dict(
            update_interval=0.1, checkpoint_interval=10, checkpoint_delta_interval=3
        ),
        recoveries=(("cc-a-r1", 2.5, 1.5), ("dc-2-r0", 5.0, 1.5)),
        durable=True,
    ),
}


def run_events(run: ReferenceRun, builder=build):
    """Build ``run`` with ``builder`` and return its trace events."""
    with tempfile.TemporaryDirectory() as store_dir:
        deployment = builder(run.config(store_dir))
        deployment.start()
        deployment.start_workload(duration=run.duration)
        for host, at_time, outage in run.recoveries:
            deployment.recovery.schedule_recovery(host, at_time, outage)
        deployment.run(until=run.duration + 4.0)
        if run.durable:
            for replica in deployment.replicas.values():
                replica.store.close()
        return deployment.tracer.events


def fingerprint(events) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def main(argv) -> int:
    names = argv[1:] or list(REFERENCE_RUNS)
    unknown = [name for name in names if name not in REFERENCE_RUNS]
    if unknown:
        print(f"unknown run(s) {unknown}; known: {list(REFERENCE_RUNS)}", file=sys.stderr)
        return 2
    for name in names:
        print(f'    "{name}": "{fingerprint(run_events(REFERENCE_RUNS[name]))}",')
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
