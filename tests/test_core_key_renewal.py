"""Key renewal (Section V-D): rotation, agreement, validity, disclosure.

Uses short validity periods so several renewals happen within a few
simulated seconds of traffic.
"""

import pytest

from repro.core.messages import EncryptedUpdate, client_alias
from repro.crypto import symmetric
from repro.errors import DecryptionError
from repro.system import Mode, SystemConfig, build


@pytest.fixture(scope="module")
def renewal_run():
    config = SystemConfig(
        mode=Mode.CONFIDENTIAL,
        f=1,
        num_clients=3,
        seed=61,
        key_renewal_enabled=True,
        key_validity=10,
        key_slack=3,
        checkpoint_interval=20,
    )
    deployment = build(config)
    deployment.start()
    deployment.start_workload(duration=30.0, interval=0.5)
    deployment.run(until=34.0)
    return deployment


def first_alias(deployment):
    return sorted(map(client_alias, deployment.env.client_registry))[0]


class TestRotation:
    def test_renewals_happened(self, renewal_run):
        replica = renewal_run.executing_replicas()[0]
        # 60 updates per client at validity 10: at least 4 rotations each.
        assert replica.renewal.renewals_completed >= 12

    def test_epochs_are_contiguous(self, renewal_run):
        replica = renewal_run.executing_replicas()[0]
        schedule = replica.key_manager.schedule_for(first_alias(renewal_run))
        epochs = schedule.epochs
        for previous, current in zip(epochs, epochs[1:]):
            assert current.start_seq == previous.end_seq + 1

    def test_every_epoch_has_distinct_keys(self, renewal_run):
        replica = renewal_run.executing_replicas()[0]
        schedule = replica.key_manager.schedule_for(first_alias(renewal_run))
        fingerprints = [e.keys.fingerprint() for e in schedule.epochs]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_all_on_premises_replicas_agree_on_keys(self, renewal_run):
        alias = first_alias(renewal_run)
        fingerprints = {
            r.key_manager.schedule_for(alias).latest.keys.fingerprint()
            for r in renewal_run.executing_replicas()
        }
        assert len(fingerprints) == 1

    def test_traffic_flows_across_epoch_boundaries(self, renewal_run):
        # No update stalls on a key rotation: everything completes.
        for proxy in renewal_run.proxies.values():
            assert proxy.outstanding == 0
        assert renewal_run.recorder.stats().pct_under_200ms == 100.0


class TestDisclosureBound:
    """Leaked keys decrypt at most the epoch they belong to."""

    def test_old_key_cannot_decrypt_later_epochs(self, renewal_run):
        alias = first_alias(renewal_run)
        replica = renewal_run.executing_replicas()[0]
        schedule = replica.key_manager.schedule_for(alias)
        old_epoch = schedule.epochs[0]
        storage = renewal_run.storage_replicas()[0]
        later_updates = [
            payload
            for record in storage.update_log.values()
            for _o, payload in record.entries
            if isinstance(payload, EncryptedUpdate)
            and payload.alias == alias
            and payload.client_seq > old_epoch.end_seq
        ]
        assert later_updates, "need post-rotation ciphertexts to test against"
        for update in later_updates:
            with pytest.raises(DecryptionError):
                symmetric.decrypt(old_epoch.keys, update.ciphertext)

    def test_current_key_decrypts_only_its_range(self, renewal_run):
        alias = first_alias(renewal_run)
        replica = renewal_run.executing_replicas()[0]
        schedule = replica.key_manager.schedule_for(alias)
        assert len(schedule.epochs) >= 2
        early, late = schedule.epochs[0], schedule.epochs[-1]
        storage = renewal_run.storage_replicas()[0]
        early_ct = [
            p
            for record in storage.update_log.values()
            for _o, p in record.entries
            if isinstance(p, EncryptedUpdate)
            and p.alias == alias
            and p.client_seq <= early.end_seq
        ]
        for update in early_ct:
            with pytest.raises(DecryptionError):
                symmetric.decrypt(late.keys, update.ciphertext)

    def test_disclosure_window_is_bounded_by_validity_plus_slack(self, renewal_run):
        # Structural form of the paper's bound: any single key pair is
        # valid for exactly V sequence numbers, and proposals are only
        # accepted within the slack window, so a leaked key covers at
        # most V + x future updates.
        config = renewal_run.config
        replica = renewal_run.executing_replicas()[0]
        schedule = replica.key_manager.schedule_for(first_alias(renewal_run))
        for epoch in schedule.epochs:
            assert epoch.end_seq - epoch.start_seq + 1 <= config.key_validity


class TestProposals:
    def test_key_proposals_are_encrypted_at_storage_replicas(self, renewal_run):
        from repro.core.messages import KeyProposal

        storage = renewal_run.storage_replicas()[0]
        proposals = [
            p
            for record in storage.update_log.values()
            for _o, p in record.entries
            if isinstance(p, KeyProposal)
        ]
        # Stored, but opaque: seeds are hardware-key encrypted.
        executor = renewal_run.executing_replicas()[0]
        for proposal in proposals:
            seed = executor.keystore.hardware_decrypt(proposal.encrypted_seed)
            assert len(seed) == 32
            assert proposal.encrypted_seed != seed

    def test_storage_replicas_never_flagged(self, renewal_run):
        renewal_run.auditor.assert_clean(set(renewal_run.data_center_hosts))


class TestRenewalWithRecovery:
    def test_recovered_replica_rebuilds_key_schedule(self):
        config = SystemConfig(
            mode=Mode.CONFIDENTIAL,
            f=1,
            num_clients=2,
            seed=62,
            key_renewal_enabled=True,
            key_validity=8,
            key_slack=2,
            checkpoint_interval=15,
        )
        deployment = build(config)
        deployment.start()
        deployment.start_workload(duration=40.0, interval=0.5)
        deployment.recovery.schedule_recovery("cc-a-r1", 15.0, 4.0)
        deployment.run(until=45.0)
        alias = first_alias(deployment)
        recovered = deployment.replicas["cc-a-r1"]
        live = deployment.replicas["cc-a-r0"]
        assert (
            recovered.key_manager.schedule_for(alias).latest.keys.fingerprint()
            == live.key_manager.schedule_for(alias).latest.keys.fingerprint()
        )
        assert recovered.executed_ordinal() == live.executed_ordinal()
        assert recovered.app.snapshot() == live.app.snapshot()
