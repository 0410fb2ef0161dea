"""End-to-end tests for Confidential Spire under benign conditions.

These tests exercise the full pipeline — proxy signing, threshold-signed
introduction, Prime ordering, decryption and execution at on-premises
replicas, ciphertext storage at data centers, threshold-signed responses,
checkpoints — using the session-scoped ``conf_run`` deployment (15 s of
traffic from 4 clients).
"""

from repro.core.messages import EncryptedUpdate, client_alias
from repro.core import ExecutingReplica, StorageReplica


class TestClientPath:
    def test_every_update_completed(self, conf_run):
        for proxy in conf_run.proxies.values():
            assert proxy.outstanding == 0
            assert len(proxy.completed) >= 14  # ~15 updates in 15 s

    def test_latencies_within_scada_bounds(self, conf_run):
        stats = conf_run.recorder.stats()
        assert stats.pct_under_100ms == 100.0
        assert 0.030 < stats.average < 0.080

    def test_responses_carry_valid_threshold_signatures(self, conf_run):
        # The proxy only records completions after verifying signatures;
        # every sample therefore attests a verified response.
        assert len(conf_run.recorder.samples) == sum(
            len(p.completed) for p in conf_run.proxies.values()
        )

    def test_no_retransmissions_needed_in_benign_run(self, conf_run):
        assert sum(p.retransmissions for p in conf_run.proxies.values()) == 0


class TestConfidentiality:
    def test_data_center_hosts_never_observe_plaintext(self, conf_run):
        conf_run.auditor.assert_clean(set(conf_run.data_center_hosts))

    def test_on_premises_hosts_do_observe_plaintext(self, conf_run):
        # Sanity check that the auditor is actually measuring something.
        exposed = conf_run.auditor.exposed_hosts
        assert set(conf_run.on_premises_hosts) <= exposed

    def test_data_centers_store_only_ciphertext(self, conf_run):
        for replica in conf_run.storage_replicas():
            assert replica.stored_ciphertext_count() > 0
            for record in replica.update_log.values():
                for _ordinal, payload in record.entries:
                    assert not hasattr(payload, "sensitive_parts") or not payload.sensitive_parts()

    def test_storage_replicas_have_no_app_or_keys(self, conf_run):
        for replica in conf_run.storage_replicas():
            assert isinstance(replica, StorageReplica)
            assert not replica.hosts_application
            assert not hasattr(replica, "key_manager")
            assert not replica.keystore.has_shared_symmetric

    def test_stored_ciphertexts_decrypt_at_on_premises(self, conf_run):
        # The content stored at a data center is exactly what an
        # on-premises replica can decrypt — that is what makes recovery
        # from data centers possible.
        storage = conf_run.storage_replicas()[0]
        executor = conf_run.executing_replicas()[0]
        checked = 0
        for record in storage.update_log.values():
            for _ordinal, payload in record.entries:
                if isinstance(payload, EncryptedUpdate):
                    plaintext = executor.key_manager.decrypt_update(
                        payload.alias, payload.client_seq, payload.ciphertext
                    )
                    assert plaintext
                    checked += 1
        assert checked > 0


class TestSafety:
    def test_executed_sequences_identical_across_on_premises(self, conf_run):
        # Definition 1 (Safety): the i-th executed update is identical at
        # every correct on-premises replica.
        replicas = conf_run.executing_replicas()
        reference = replicas[0].app.snapshot()
        for replica in replicas[1:]:
            assert replica.app.snapshot() == reference

    def test_executed_ordinals_agree(self, conf_run):
        ordinals = {r.executed_ordinal() for r in conf_run.replicas.values()}
        assert len(ordinals) == 1

    def test_per_client_sequences_executed_in_order(self, conf_run):
        replica = conf_run.executing_replicas()[0]
        for client_id in conf_run.proxies:
            alias = client_alias(client_id)
            executed = replica.executed_seq(alias)
            assert executed == len(conf_run.proxies[client_id].completed)


class TestCheckpoints:
    def test_checkpoints_reach_stability(self, conf_run):
        # checkpoint_interval=30, ~60 updates total: at least one stable.
        for replica in conf_run.replicas.values():
            assert replica.checkpoints.stable is not None

    def test_stable_checkpoint_garbage_collects_log(self, conf_run):
        replica = conf_run.executing_replicas()[0]
        stable = replica.checkpoints.stable
        oldest = min(replica.update_log) if replica.update_log else None
        assert oldest is None or oldest >= stable.resume.batch_seq

    def test_data_centers_hold_the_same_stable_checkpoint(self, conf_run):
        digests = {
            r.checkpoints.stable.blob_digest() for r in conf_run.replicas.values()
        }
        ordinals = {r.checkpoints.stable.ordinal for r in conf_run.replicas.values()}
        # All replicas converge on a stable checkpoint; late stragglers may
        # trail by one interval.
        assert len(digests) <= 2
        assert max(ordinals) - min(ordinals) <= conf_run.config.checkpoint_interval

    def test_checkpoint_blob_is_hardware_decryptable(self, conf_run):
        replica = conf_run.executing_replicas()[0]
        blob = replica.checkpoints.stable.blob_bytes()
        decrypted = replica.keystore.hardware_decrypt(blob)
        assert b"executed" in decrypted  # JSON state


class TestEngineState:
    def test_view_stays_at_zero_in_benign_run(self, conf_run):
        assert {r.engine.view for r in conf_run.replicas.values()} == {0}

    def test_no_replica_is_catching_up(self, conf_run):
        assert not any(r.engine.catching_up for r in conf_run.replicas.values())

    def test_plan_matches_table_one(self, conf_run):
        assert conf_run.plan.label() == "4+4+3+3 (14)"
