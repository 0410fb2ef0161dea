"""Tests for CP-ITM message types, aliases, and update packing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidentiality import Sensitive
from repro.core.messages import (
    CheckpointMsg,
    ClientResponse,
    ClientUpdate,
    EncryptedUpdate,
    KeyProposal,
    ResumePoint,
    client_alias,
    pack_update,
    unpack_update,
)
from repro.net.codec import encoded_size


class TestClientAlias:
    def test_alias_is_stable(self):
        assert client_alias("rtu-1") == client_alias("rtu-1")

    def test_alias_hides_identity(self):
        alias = client_alias("rtu-1")
        assert "rtu-1" not in alias
        assert len(alias) == 16

    def test_distinct_clients_distinct_aliases(self):
        assert client_alias("a") != client_alias("b")


class TestPackUpdate:
    @given(
        st.text(min_size=1, max_size=40).filter(lambda s: s.isprintable()),
        st.integers(1, 2 ** 40),
        st.binary(max_size=200),
    )
    @settings(max_examples=50)
    def test_roundtrip(self, client_id, seq, body):
        packed = pack_update(client_id, seq, body)
        assert unpack_update(packed) == (client_id, seq, body)

    def test_binary_body_with_delimiters(self):
        body = b"\x00|\xff|embedded|pipes\x00"
        assert unpack_update(pack_update("c", 7, body)) == ("c", 7, body)


class TestMessageIdentity:
    def test_client_update_digest_covers_content(self):
        a = ClientUpdate("c", 1, Sensitive(b"x"))
        b = ClientUpdate("c", 1, Sensitive(b"y"))
        c = ClientUpdate("c", 2, Sensitive(b"x"))
        assert a.digest() != b.digest()
        assert a.digest() != c.digest()

    def test_encrypted_update_digest_covers_ciphertext(self):
        a = EncryptedUpdate("alias", 1, b"ct-1")
        b = EncryptedUpdate("alias", 1, b"ct-2")
        assert a.digest() != b.digest()

    def test_key_proposal_digest_covers_proposer(self):
        a = KeyProposal("al", 1, 100, "r1", b"seed")
        b = KeyProposal("al", 1, 100, "r2", b"seed")
        assert a.digest() != b.digest()


class TestSensitiveParts:
    def test_client_update_is_sensitive(self):
        update = ClientUpdate("c", 1, Sensitive(b"x", label="secret"))
        assert update.sensitive_parts() == ["secret"]

    def test_encrypted_update_is_not_sensitive(self):
        assert not hasattr(EncryptedUpdate("a", 1, b"ct"), "sensitive_parts")

    def test_client_response_is_sensitive(self):
        response = ClientResponse("c", 1, Sensitive(b"r", label="resp"), b"sig")
        assert response.sensitive_parts() == ["resp"]

    def test_checkpoint_sensitivity_depends_on_blob(self):
        resume = ResumePoint(batch_seq=1, ordinal=10, ordered_through=())
        encrypted = CheckpointMsg(10, resume, b"ciphertext", "r1")
        plaintext = CheckpointMsg(10, resume, Sensitive(b"state", label="snap"), "r1")
        assert encrypted.sensitive_parts() == []
        assert plaintext.sensitive_parts() == ["snap"]

    def test_checkpoint_blob_digest_uniform(self):
        resume = ResumePoint(batch_seq=1, ordinal=10, ordered_through=())
        a = CheckpointMsg(10, resume, b"blob", "r1")
        b = CheckpointMsg(10, resume, Sensitive(b"blob"), "r2")
        assert a.blob_digest() == b.blob_digest()


class TestResumePoint:
    def test_from_engine_sorts_origins(self):
        resume = ResumePoint.from_engine(5, 50, {"b": 2, "a": 1})
        assert resume.ordered_through == (("a", 1), ("b", 2))
        assert resume.ordered_through_dict() == {"a": 1, "b": 2}


class TestWireSizes:
    def test_sizes_scale_with_content(self):
        small = ClientUpdate("c", 1, Sensitive(b"x"))
        big = ClientUpdate("c", 1, Sensitive(b"x" * 1000))
        assert encoded_size(big) > encoded_size(small) + 900

    def test_all_messages_have_positive_size(self):
        resume = ResumePoint(batch_seq=1, ordinal=10, ordered_through=())
        messages = [
            ClientUpdate("c", 1, Sensitive(b"x")),
            EncryptedUpdate("a", 1, b"ct"),
            ClientResponse("c", 1, Sensitive(b"r"), b"s"),
            KeyProposal("al", 1, 100, "r1", b"seed"),
            CheckpointMsg(10, resume, b"blob", "r1"),
        ]
        assert all(encoded_size(m) > 0 for m in messages)
