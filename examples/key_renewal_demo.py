#!/usr/bin/env python3
"""Key renewal and bounded disclosure (Section V-D).

Runs Confidential Spire with automatic key renewal (validity V=12 updates
per client, slack x=4), then plays the adversary: steal the current client
keys from a compromised on-premises replica at mid-run, and measure how
many of the updates stored at a data-center replica those stolen keys can
decrypt. The answer the protocol guarantees: only the epoch the keys
belong to — once the schedule rotates, the stolen keys are useless, so a
compromised-then-recovered replica leaks at most V + x future updates per
client.

Run:  python examples/key_renewal_demo.py
"""

from repro.core.messages import EncryptedUpdate, client_alias
from repro.crypto import symmetric
from repro.errors import DecryptionError
from repro.system import Mode, SystemConfig, build


def main() -> None:
    config = SystemConfig(
        mode=Mode.CONFIDENTIAL,
        f=1,
        num_clients=3,
        seed=99,
        key_renewal_enabled=True,
        key_validity=12,
        key_slack=4,
        checkpoint_interval=25,
    )
    deployment = build(config)
    alias_to_client = {client_alias(cid): cid for cid in deployment.env.client_registry}
    deployment.start()
    deployment.start_workload(duration=20.0, interval=0.5)

    # t=10: the adversary compromises an on-premises replica and copies
    # every client key it currently holds (TPM keys cannot be copied).
    stolen = {}

    def steal():
        victim = deployment.replicas["cc-a-r1"]
        for alias in alias_to_client:
            epoch = victim.key_manager.schedule_for(alias).latest
            stolen[alias] = (epoch.start_seq, epoch.end_seq, epoch.keys)
        print(f"[t=10] adversary stole keys for {len(stolen)} clients "
              f"(epochs: {[(s, e) for s, e, _ in stolen.values()]})")

    deployment.kernel.call_at(10.0, steal)
    deployment.run(until=24.0)

    replica = deployment.executing_replicas()[0]
    print(f"key renewals completed during the run: {replica.renewal.renewals_completed}")
    print()

    # Now decrypt everything the data center stores with the stolen keys.
    storage = deployment.storage_replicas()[0]
    print(f"attacking {storage.host}'s stored ciphertexts with the stolen keys:")
    for alias, (start, end, keys) in sorted(stolen.items()):
        client = alias_to_client[alias]
        readable, unreadable = [], 0
        for record in storage.update_log.values():
            for _ordinal, payload in record.entries:
                if isinstance(payload, EncryptedUpdate) and payload.alias == alias:
                    try:
                        symmetric.decrypt(keys, payload.ciphertext)
                        readable.append(payload.client_seq)
                    except DecryptionError:
                        unreadable += 1
        in_epoch = all(start <= seq <= end for seq in readable)
        print(
            f"  {client}: stolen epoch [{start},{end}] -> decrypts "
            f"{len(readable)} updates (all within the stolen epoch: {in_epoch}), "
            f"{unreadable} updates remain sealed"
        )
        assert in_epoch

    print()
    print(f"disclosure bound: a leaked key pair covers at most "
          f"V + x = {config.key_validity + config.key_slack} updates per client")
    print("after proactive recovery + one rotation, the system returns to "
          "full confidentiality (Section V-D)")


if __name__ == "__main__":
    main()
