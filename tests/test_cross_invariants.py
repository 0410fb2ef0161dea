"""Cross-cutting invariants between the roles and layers.

These don't test one module; they pin the relationships the architecture
promises between on-premises execution, data-center storage, and the
global order.
"""

import pytest

import repro
from repro.core.messages import EncryptedUpdate
from repro.errors import (
    ConfidentialityViolation,
    ConfigurationError,
    CryptoError,
    DecryptionError,
    KeyExfiltrationError,
    KeyScheduleError,
    NetworkError,
    ProtocolError,
    ReproError,
    SignatureError,
    SimulationError,
    StateTransferError,
    UnreachableError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            ConfigurationError,
            CryptoError,
            SignatureError,
            DecryptionError,
            KeyExfiltrationError,
            KeyScheduleError,
            NetworkError,
            UnreachableError,
            ProtocolError,
            StateTransferError,
            ConfidentialityViolation,
            SimulationError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)

    def test_crypto_sub_hierarchy(self):
        assert issubclass(SignatureError, CryptoError)
        assert issubclass(DecryptionError, CryptoError)
        assert issubclass(KeyExfiltrationError, CryptoError)

    def test_package_exports(self):
        assert repro.__version__ == "1.0.0"
        assert callable(repro.build)


class TestStorageMirrorsExecution:
    def test_update_logs_identical_across_roles(self, conf_run):
        """The retained batch records are byte-for-byte the same at every
        replica — storage replicas store exactly what executors ran."""
        logs = {}
        for host, replica in conf_run.replicas.items():
            logs[host] = {
                seq: [
                    (ordinal, getattr(p, "digest", lambda: repr(p))())
                    for ordinal, p in record.entries
                ]
                for seq, record in replica.update_log.items()
            }
        hosts = sorted(logs)
        reference = logs[hosts[0]]
        for host in hosts[1:]:
            shared = set(reference) & set(logs[host])
            for seq in shared:
                assert logs[host][seq] == reference[seq], (host, seq)

    def test_every_retained_ciphertext_is_executable(self, conf_run):
        """Anything a data center retains, an on-prem replica can decrypt
        AND corresponds to an executed client sequence."""
        storage = conf_run.storage_replicas()[0]
        executor = conf_run.executing_replicas()[0]
        for record in storage.update_log.values():
            for _ordinal, payload in record.entries:
                if isinstance(payload, EncryptedUpdate):
                    assert executor.is_executed(payload.alias, payload.client_seq)

    def test_ordinals_strictly_increase_within_logs(self, conf_run):
        for replica in conf_run.replicas.values():
            previous = 0
            for seq in sorted(replica.update_log):
                for ordinal, _payload in replica.update_log[seq].entries:
                    assert ordinal > previous
                    previous = ordinal

    def test_resume_points_chain(self, conf_run):
        """Each batch record's resume ordinal equals the previous record's
        plus this batch's entry count (the chain state transfer relies on)."""
        for replica in conf_run.replicas.values():
            records = [replica.update_log[s] for s in sorted(replica.update_log)]
            for previous, current in zip(records, records[1:]):
                if current.batch_seq == previous.batch_seq + 1:
                    assert (
                        current.resume.ordinal
                        == previous.resume.ordinal + len(current.entries)
                    )


class TestResponseAuthenticity:
    def test_completed_responses_verify_against_service_key(self, conf_run):
        # Re-verify a stored response end to end: the proxy checked it
        # once; the cached copy at replicas still verifies.
        replica = conf_run.executing_replicas()[0]
        verified = 0
        for cache in replica.responses.cache.values():
            for response in cache.values():
                assert conf_run.env.response_public.verify(
                    response.signing_bytes(), response.threshold_sig
                )
                verified += 1
        assert verified > 0
