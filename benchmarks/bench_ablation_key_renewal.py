"""A3 — ablation: key renewal (Section V-D).

The paper designs (but does not implement) automatic key renewal; we
implement it and measure:

1. its latency overhead relative to renewal-off (should be small: one
   extra ordered message per client per validity period, plus hardware
   encryption of seeds),
2. the disclosure bound: keys leaked from one epoch decrypt none of the
   ciphertexts of later epochs, so a compromised-then-recovered replica
   exposes at most V + x updates per client going forward.
"""

import pytest

from repro.core.messages import EncryptedUpdate, client_alias
from repro.crypto import symmetric
from repro.errors import DecryptionError
from repro.system import Mode, SystemConfig, build

from benchmarks.conftest import record_result


def run_system(renewal: bool, validity: int = 15):
    config = SystemConfig(
        mode=Mode.CONFIDENTIAL,
        f=1,
        num_clients=5,
        seed=29,
        key_renewal_enabled=renewal,
        key_validity=validity,
        key_slack=5,
        # Keep the whole run's ciphertexts resident (no stable-checkpoint
        # garbage collection) so the disclosure analysis below can scan
        # every epoch's stored updates.
        checkpoint_interval=100_000,
    )
    deployment = build(config)
    deployment.start()
    deployment.start_workload(duration=45.0, interval=0.5)
    deployment.run(until=49.0)
    return deployment


def test_key_renewal_overhead(benchmark):
    def run_pair():
        return run_system(False), run_system(True)

    off, on = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    stats_off = off.recorder.stats()
    stats_on = on.recorder.stats()
    replica = on.executing_replicas()[0]
    renewals = replica.renewal.renewals_completed
    overhead = (stats_on.average - stats_off.average) * 1000

    lines = [
        "Ablation A3 — key renewal overhead and disclosure bound:",
        "",
        stats_off.row("renewal off"),
        stats_on.row(f"renewal on (V=15, x=5)"),
        f"renewals completed: {renewals}",
        f"latency overhead: {overhead:+.2f} ms",
    ]

    # Rotation actually happened, traffic was never disrupted, and the
    # overhead is small.
    assert renewals >= 15  # 5 clients x ~90 updates / 15-update epochs
    assert stats_on.pct_under_200ms == 100.0
    assert abs(overhead) < 5.0

    # Disclosure bound: epoch-0 keys decrypt nothing beyond epoch 0.
    alias = sorted(map(client_alias, on.env.client_registry))[0]
    schedule = replica.key_manager.schedule_for(alias)
    assert len(schedule.epochs) >= 3
    leaked = schedule.epochs[0]
    storage = on.storage_replicas()[0]
    later, decryptable = 0, 0
    for record in storage.update_log.values():
        for _ordinal, payload in record.entries:
            if not isinstance(payload, EncryptedUpdate) or payload.alias != alias:
                continue
            if payload.client_seq <= leaked.end_seq:
                continue
            later += 1
            try:
                symmetric.decrypt(leaked.keys, payload.ciphertext)
                decryptable += 1
            except DecryptionError:
                pass
    lines.append(
        f"post-epoch ciphertexts decryptable with leaked epoch-0 keys: "
        f"{decryptable}/{later}"
    )
    record_result("ablation_key_renewal", lines)
    for line in lines:
        print(line)
    assert later > 0 and decryptable == 0
