"""Wire codec round-trip tests for every protocol message type.

Every sample below also has a committed byte vector in
``tests/data/codec_vectors.json`` (name -> hex). A vector that changes is
a wire *and* on-disk format change (see docs/RUNTIME.md, "Message
encoding"). ``PYTHONPATH=src python -m tests.test_net_codec`` appends
vectors for newly added samples; it never rewrites an existing one.
"""

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidentiality import Sensitive
from repro.core.messages import (
    BatchProposal,
    BatchRecord,
    BatchShare,
    CertifiedResponse,
    CheckpointDeltaMsg,
    CheckpointMsg,
    ClientResponse,
    ClientUpdate,
    EncryptedUpdate,
    IntroShare,
    KeyProposal,
    ResponseBatchShare,
    ResponseShare,
    ResumePoint,
    SignedUpdateBatch,
    StateXferResponse,
    StateXferSolicit,
    XferRequest,
)
from repro.crypto.merkle import MerkleProof
from repro.crypto.threshold import PartialSignature, ShareProof
from repro.errors import ProtocolError
from repro.net.codec import (
    decode_message,
    encode_message,
    encoded_size,
    read_varint,
    registered_types,
    write_bytes,
    write_varint,
)
from repro.shard.messages import (
    CrossShardCommit,
    CrossShardIntent,
    CrossShardPrepare,
    ShardMapAnnounce,
)
from repro.prime.messages import (
    BatchFetch,
    BatchFetchReply,
    Commit,
    Heartbeat,
    NewView,
    OpaqueUpdate,
    PoAck,
    PoAru,
    PoFetch,
    PoFetchReply,
    PoRequest,
    PreparedCert,
    PrePrepare,
    Prepare,
    Suspect,
    VcState,
)


def roundtrip(message):
    encoded = encode_message(message)
    decoded, consumed = decode_message(encoded)
    assert consumed == len(encoded)
    assert decoded == message
    return encoded


class TestVarint:
    @given(st.integers(0, 2 ** 62))
    @settings(max_examples=100)
    def test_roundtrip(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, offset = read_varint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            write_varint(bytearray(), -1)

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError):
            read_varint(b"\x80", 0)


SAMPLE_RESUME = ResumePoint(batch_seq=7, ordinal=42, ordered_through=(("r0#0", 5), ("r1#0", 3)))
SAMPLE_ENCRYPTED = EncryptedUpdate(alias="abcd" * 4, client_seq=9, ciphertext=b"\x01" * 48, threshold_sig=b"\x02" * 48)
SAMPLE_PLAIN = ClientUpdate(client_id="client-03", client_seq=4, body=Sensitive(b"SET x 1", label="client-update-body"), signature=b"\x03" * 64)
SAMPLE_PROPOSAL = KeyProposal(alias="abcd" * 4, range_start=101, range_end=200, proposer="cc-a-r1", encrypted_seed=b"\x04" * 64)
SAMPLE_INTENT = CrossShardIntent(
    client_id="client-03",
    client_seq=7,
    home_shard=1,
    targets=(0, 1),
    body=Sensitive(b"SET xkey-client-03-2 xvalue-8", label="client-update-body"),
)
SAMPLE_PREPARE = CrossShardPrepare(
    client_id="client-03",
    client_seq=7,
    home_shard=1,
    intent_digest=b"\x19" * 32,
    cert_kind=0,
    cert_sig=b"\x1a" * 48,
)


PRIME_MESSAGES = [
    PoRequest(origin="r0#0", seq=3, update=OpaqueUpdate(digest=b"\x05" * 32, payload=SAMPLE_ENCRYPTED, size=200)),
    PoAck(origin="r0#0", seq=3, digest=b"\x06" * 32),
    PoAru(vector={"r0#0": 9, "r1#2": 1}),
    PrePrepare(view=2, seq=10, cutoffs={"r0#0": 9}),
    Prepare(view=2, seq=10, content_digest=b"\x07" * 32),
    Commit(view=2, seq=10, content_digest=b"\x07" * 32),
    Heartbeat(view=3),
    Suspect(target_view=4),
    VcState(view=4, last_committed=8, prepared=(PreparedCert(view=2, seq=9, cutoffs={"r1#0": 2}),)),
    NewView(view=4, start_seq=8, adopted=(PreparedCert(view=4, seq=9, cutoffs={}),)),
    PoFetch(origin="r1#0", seq=2),
    PoFetchReply(request=PoRequest(origin="r1#0", seq=2, update=OpaqueUpdate(digest=b"\x08" * 32, payload=SAMPLE_PLAIN, size=150))),
    BatchFetch(seqs=(12, 14, 15)),
    BatchFetch(seqs=()),
    BatchFetchReply(seq=12, cutoffs={"r0#0": 9, "r1#0": 2}),
]

CPITM_MESSAGES = [
    SAMPLE_PLAIN,
    SAMPLE_ENCRYPTED,
    IntroShare(alias="abcd" * 4, client_seq=4, update_digest=b"\x09" * 32, partial=PartialSignature(signer=3, value=12345678901234567890)),
    ResponseShare(client_id="client-03", client_seq=4, response_digest=b"\x0a" * 32, partial=PartialSignature(signer=1, value=2 ** 350 + 99)),
    ClientResponse(client_id="client-03", client_seq=4, body=Sensitive(b"OK", label="client-response"), threshold_sig=b"\x0b" * 48),
    SAMPLE_PROPOSAL,
    CheckpointMsg(ordinal=100, resume=SAMPLE_RESUME, blob=b"\x0c" * 256, signer="cc-a-r0"),
    CheckpointMsg(ordinal=100, resume=SAMPLE_RESUME, blob=Sensitive(b"plain state", label="state-snapshot"), signer="dc-1-r0"),
    # CompactLab delta-encoded checkpoints (chain nodes between fulls).
    CheckpointDeltaMsg(ordinal=125, base_ordinal=100, full_ordinal=100, resume=SAMPLE_RESUME, blob=b"\x1f" * 64, signer="cc-a-r0"),
    CheckpointDeltaMsg(ordinal=150, base_ordinal=125, full_ordinal=100, resume=SAMPLE_RESUME, blob=Sensitive(b'{"set":{}}', label="state-delta"), signer="dc-1-r0"),
    StateXferSolicit(requester="cc-b-r1", nonce=2),
    StateXferSolicit(requester="cc-b-r1", nonce=2, have_seq=75, have_ordinal=3),
    XferRequest(requester="cc-b-r1", nonce=2),
    XferRequest(requester="cc-b-r1", nonce=2, have_seq=75, have_ordinal=3),
    BatchRecord(batch_seq=11, resume=SAMPLE_RESUME, entries=((43, SAMPLE_ENCRYPTED), (44, SAMPLE_PROPOSAL))),
    StateXferResponse(
        requester="cc-b-r1",
        nonce=2,
        checkpoint=CheckpointMsg(ordinal=100, resume=SAMPLE_RESUME, blob=b"\x0d" * 64, signer="dc-2-r0"),
        batches=(BatchRecord(batch_seq=11, resume=SAMPLE_RESUME, entries=((43, SAMPLE_ENCRYPTED),)),),
        view=4,
        responder="dc-2-r0",
        part_index=1,
        part_count=3,
    ),
    StateXferResponse(requester="x", nonce=1, checkpoint=None, batches=(), view=0, responder="y"),
    # Deltas-only transfer: requester already holds the full anchor.
    StateXferResponse(
        requester="cc-b-r1",
        nonce=3,
        checkpoint=None,
        batches=(),
        view=4,
        responder="dc-2-r0",
        deltas=(
            CheckpointDeltaMsg(ordinal=125, base_ordinal=100, full_ordinal=100, resume=SAMPLE_RESUME, blob=b"\x20" * 48, signer="dc-2-r0"),
            CheckpointDeltaMsg(ordinal=150, base_ordinal=125, full_ordinal=100, resume=SAMPLE_RESUME, blob=b"\x21" * 48, signer="dc-2-r0"),
        ),
    ),
    # BatchLab introduction-batching messages.
    BatchProposal(proposer="cc-a-r0", batch_no=3, items=(SAMPLE_ENCRYPTED, EncryptedUpdate(alias="ef01" * 4, client_seq=2, ciphertext=b"\x0e" * 48))),
    BatchProposal(proposer="cc-b-r1", batch_no=1, items=(SAMPLE_ENCRYPTED,)),
    BatchShare(proposer="cc-a-r0", batch_no=3, root=b"\x0f" * 32, count=2, partial=PartialSignature(signer=2, value=2 ** 300 + 7)),
    SignedUpdateBatch(root=b"\x10" * 32, items=(SAMPLE_ENCRYPTED,), threshold_sig=b"\x11" * 48),
    ResponseBatchShare(root=b"\x12" * 32, count=4, partial=PartialSignature(signer=0, value=2 ** 350 + 123)),
    CertifiedResponse(
        client_id="client-03",
        client_seq=4,
        body=Sensitive(b"OK", label="client-response"),
        batch_root=b"\x13" * 32,
        batch_count=4,
        batch_sig=b"\x14" * 48,
        proof=MerkleProof(leaf_index=2, path=((b"\x15" * 32, True), (b"\x16" * 32, False))),
    ),
    CertifiedResponse(
        client_id="client-07",
        client_seq=1,
        body=Sensitive(b"VALUE 9", label="client-response"),
        batch_root=b"\x17" * 32,
        batch_count=1,
        batch_sig=b"\x18" * 48,
        proof=MerkleProof(leaf_index=0, path=()),
    ),
    # ShardLab routing + cross-shard ordering messages.
    ShardMapAnnounce(seed=19, shards=4, version=2),
    SAMPLE_INTENT,
    SAMPLE_PREPARE,
    CrossShardPrepare(
        client_id="client-03",
        client_seq=7,
        home_shard=1,
        intent_digest=b"\x1b" * 32,
        cert_kind=1,
        cert_sig=b"\x1c" * 48,
        batch_root=b"\x1d" * 32,
        batch_count=3,
        proof=MerkleProof(leaf_index=1, path=((b"\x1e" * 32, False),)),
    ),
    CrossShardCommit(intent=SAMPLE_INTENT, prepare=SAMPLE_PREPARE),
]


# Parametrize ids for ``PRIME_MESSAGES + CPITM_MESSAGES``, one per sample and
# the same on every run (three test modules used ``id(message) % 97``, which
# named each case differently per process and made ``-k`` / ``--lf``
# useless). The suffixes are those of one recorded run, so test inventories
# taken before this table still match.
SAMPLE_IDS = """
PoRequest-94 PoAck-30 PoAru-63 PrePrepare-67 Prepare-3 Commit-5 Heartbeat-38
Suspect-71 VcState-77 NewView-69 PoFetch-96 PoFetchReply-1 BatchFetch-34
BatchFetch-39 BatchFetchReply-72 ClientUpdate-50 EncryptedUpdate-59
IntroShare-41 ResponseShare-10 ClientResponse-76 KeyProposal-83
CheckpointMsg-12 CheckpointMsg-49 CheckpointDeltaMsg-51 CheckpointDeltaMsg-84
StateXferSolicit-20 StateXferSolicit-81 XferRequest-22 XferRequest-53
BatchRecord-82 StateXferResponse-14 StateXferResponse-31 StateXferResponse-78
BatchProposal-0 BatchProposal-33 BatchShare-54 SignedUpdateBatch-21
ResponseBatchShare-85 CertifiedResponse-70 CertifiedResponse-87
ShardMapAnnounce-23 CrossShardIntent-90 CrossShardPrepare-28
CrossShardPrepare-48 CrossShardCommit-75
""".split()
assert [i.split("-")[0] for i in SAMPLE_IDS] == [
    type(m).__name__ for m in PRIME_MESSAGES + CPITM_MESSAGES
]


# Samples that exist for the byte vectors only (other test modules import
# the two lists above as their parametrize sets): the remaining
# ``optional`` arms and the deepest nestings the protocol produces.
SAMPLE_SIGNED_BATCH = SignedUpdateBatch(root=b"\x22" * 32, items=(SAMPLE_ENCRYPTED, EncryptedUpdate(alias="ef01" * 4, client_seq=2, ciphertext=b"\x23" * 48)), threshold_sig=b"\x24" * 48)
SAMPLE_DELTA = CheckpointDeltaMsg(ordinal=125, base_ordinal=100, full_ordinal=100, resume=SAMPLE_RESUME, blob=b"\x25" * 48, signer="dc-2-r0")
SAMPLE_PROVEN_PREPARE = CrossShardPrepare(
    client_id="client-03",
    client_seq=7,
    home_shard=1,
    intent_digest=b"\x26" * 32,
    cert_kind=1,
    cert_sig=b"\x27" * 48,
    batch_root=b"\x28" * 32,
    batch_count=2,
    proof=MerkleProof(leaf_index=1, path=((b"\x29" * 32, False),)),
)

EXTRA_MESSAGES = [
    IntroShare(alias="abcd" * 4, client_seq=4, update_digest=b"\x2a" * 32, partial=PartialSignature(signer=3, value=2 ** 300 + 5, proof=ShareProof(challenge=2 ** 127 + 1, response=2 ** 400 + 9))),
    PoRequest(origin="r0#1", seq=300, update=OpaqueUpdate(digest=b"\x2b" * 32, payload=SAMPLE_SIGNED_BATCH, size=420)),
    StateXferResponse(
        requester="cc-b-r1",
        nonce=200,
        checkpoint=CheckpointMsg(ordinal=100, resume=SAMPLE_RESUME, blob=Sensitive(b"plain state", label="state-snapshot"), signer="dc-2-r0"),
        batches=(
            BatchRecord(batch_seq=11, resume=SAMPLE_RESUME, entries=((43, SAMPLE_SIGNED_BATCH), (44, SAMPLE_PROPOSAL))),
            BatchRecord(batch_seq=12, resume=SAMPLE_RESUME, entries=()),
        ),
        view=4,
        responder="dc-2-r0",
        part_index=2,
        part_count=3,
        deltas=(SAMPLE_DELTA,),
    ),
    CertifiedResponse(
        client_id="client-03",
        client_seq=4,
        body=Sensitive(b"OK", label="client-response"),
        batch_root=b"\x2c" * 32,
        batch_count=8,
        batch_sig=b"\x2d" * 48,
        proof=MerkleProof(leaf_index=5, path=((b"\x2e" * 32, False), (b"\x2f" * 32, True), (b"\x30" * 32, False))),
    ),
    CrossShardIntent(client_id="client-03", client_seq=8, home_shard=0, targets=(), body=b"\x31" * 40),
    CrossShardCommit(intent=SAMPLE_INTENT, prepare=SAMPLE_PROVEN_PREPARE),
]


def _named(messages, seen):
    """``(TypeName-n, message)`` pairs; ``n`` counts earlier samples of the type."""
    named = []
    for message in messages:
        name = type(message).__name__
        named.append((f"{name}-{seen[name]}", message))
        seen[name] += 1
    return named


_seen = Counter()
NAMED_PRIME = _named(PRIME_MESSAGES, _seen)
NAMED_CPITM = _named(CPITM_MESSAGES, _seen)
NAMED_EXTRA = _named(EXTRA_MESSAGES, _seen)
ALL_NAMED = NAMED_PRIME + NAMED_CPITM + NAMED_EXTRA

VECTOR_PATH = Path(__file__).parent / "data" / "codec_vectors.json"
VECTORS = json.loads(VECTOR_PATH.read_text()) if VECTOR_PATH.exists() else {}


def roundtrip_against_vector(name, message):
    encoded = roundtrip(message)
    assert encoded.hex() == VECTORS[name]
    assert decode_message(bytes.fromhex(VECTORS[name])) == (message, len(encoded))


@pytest.mark.parametrize("name,message", NAMED_PRIME, ids=[n for n, _ in NAMED_PRIME])
def test_prime_message_roundtrip(name, message):
    roundtrip_against_vector(name, message)


@pytest.mark.parametrize("name,message", NAMED_CPITM + NAMED_EXTRA, ids=[n for n, _ in NAMED_CPITM + NAMED_EXTRA])
def test_cpitm_message_roundtrip(name, message):
    roundtrip_against_vector(name, message)


def test_every_registered_type_is_covered():
    covered = {type(m) for m in PRIME_MESSAGES + CPITM_MESSAGES}
    assert set(registered_types()) <= covered


def test_every_registered_type_has_a_vector():
    assert set(VECTORS) == {name for name, _ in ALL_NAMED}
    assert {t.__name__ for t in registered_types()} <= {name.rsplit("-", 1)[0] for name in VECTORS}


def test_unknown_type_rejected():
    with pytest.raises(ProtocolError):
        encode_message(object())


def test_unknown_tag_rejected():
    with pytest.raises(ProtocolError):
        decode_message(b"\xff\x00")


def test_xfer_request_signing_bytes_keeps_legacy_form():
    # The no-disk-state digest feeds ordered-batch trace digests; changing
    # it would break the sim's byte-identity contract across versions.
    legacy = XferRequest(requester="cc-b-r1", nonce=2)
    assert legacy.signing_bytes() == b"xfer|cc-b-r1|2"
    advertised = XferRequest(requester="cc-b-r1", nonce=2, have_seq=75, have_ordinal=3)
    assert advertised.signing_bytes() == b"xfer|cc-b-r1|2|75|3"
    assert legacy.digest() != advertised.digest()


def test_sensitive_blob_survives_the_wire():
    message = CheckpointMsg(
        ordinal=1,
        resume=SAMPLE_RESUME,
        blob=Sensitive(b"secrets", label="state-snapshot"),
        signer="r",
    )
    decoded, _ = decode_message(encode_message(message))
    assert decoded.sensitive_parts() == ["state-snapshot"]


def test_encoded_size_tracks_payload():
    small = EncryptedUpdate(alias="a", client_seq=1, ciphertext=b"x" * 10)
    large = EncryptedUpdate(alias="a", client_seq=1, ciphertext=b"x" * 1000)
    assert encoded_size(large) - encoded_size(small) in range(988, 996)


@given(
    st.text(min_size=1, max_size=20).filter(lambda s: s.isprintable()),
    st.integers(1, 10 ** 9),
    st.binary(max_size=300),
    st.binary(max_size=64),
)
@settings(max_examples=40)
def test_encrypted_update_roundtrip_property(alias, seq, ciphertext, sig):
    roundtrip(
        EncryptedUpdate(alias=alias, client_seq=seq, ciphertext=ciphertext, threshold_sig=sig)
    )


@given(st.dictionaries(st.sampled_from(["a#0", "b#1", "c#2"]), st.integers(0, 10 ** 6)))
@settings(max_examples=40)
def test_po_aru_roundtrip_property(vector):
    encoded = encode_message(PoAru(vector=vector))
    decoded, _ = decode_message(encoded)
    assert dict(decoded.vector) == vector


def test_stream_of_messages_decodes_sequentially():
    stream = b"".join(encode_message(m) for m in PRIME_MESSAGES[:5])
    offset = 0
    decoded = []
    while offset < len(stream):
        message, offset = decode_message(stream, offset)
        decoded.append(message)
    assert decoded == PRIME_MESSAGES[:5]


# -- hostile input: only ProtocolError may escape decode ------------------------


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_every_strict_prefix_raises_protocol_error(name):
    data = bytes.fromhex(VECTORS[name])
    for cut in range(len(data)):
        with pytest.raises(ProtocolError):
            decode_message(data[:cut])


def _set_first_difference(left, right, value):
    """Encode both; overwrite the first byte where they differ (a flag,
    presence or blob-kind byte) with ``value``."""
    a, b = encode_message(left), encode_message(right)
    index = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    return a[:index] + bytes([value]) + a[index + 1:]


def _length_prefixed(tag, body):
    out = bytearray([tag])
    write_bytes(out, body)
    return bytes(out)


def _tower(levels):
    data = encode_message(PoFetch(origin="a", seq=1))
    for _ in range(levels):
        data = _length_prefixed(12, data)  # PoFetchReply(request=<nested>)
    return data


_PLAIN_PARTIAL = PartialSignature(signer=3, value=2 ** 300 + 5)
_PROVEN_PARTIAL = PartialSignature(signer=3, value=2 ** 300 + 5, proof=ShareProof(challenge=7, response=9))
MALFORMED = {
    "invalid-utf8-str": bytes([2, 2, 0xFF, 0xFE, 1, 0]),
    "nesting-tower": _tower(2000),
    "nested-junk-po-fetch-reply": _length_prefixed(12, encode_message(PoFetch(origin="a", seq=1)) + b"JUNK"),
    # Encoding forwards OpaqueUpdate.encoded verbatim, junk included.
    "nested-junk-po-request": encode_message(PoRequest(origin="r0#0", seq=3, update=OpaqueUpdate(digest=b"\x05" * 32, payload=SAMPLE_ENCRYPTED, size=200, encoded=encode_message(SAMPLE_ENCRYPTED) + b"JUNK"))),
    "optional-presence-2": _set_first_difference(
        ResponseBatchShare(root=b"r", count=1, partial=_PROVEN_PARTIAL),
        ResponseBatchShare(root=b"r", count=1, partial=_PLAIN_PARTIAL),
        2,
    ),
    "blob-kind-2": _set_first_difference(
        CheckpointMsg(ordinal=1, resume=SAMPLE_RESUME, blob=b"c", signer="r"),
        CheckpointMsg(ordinal=1, resume=SAMPLE_RESUME, blob=Sensitive(b"c", label="l"), signer="r"),
        2,
    ),
    "flag-2": _set_first_difference(
        CertifiedResponse(client_id="c", client_seq=1, body=Sensitive(b"OK"), batch_root=b"r", batch_count=1, batch_sig=b"s", proof=MerkleProof(leaf_index=0, path=((b"x", False),))),
        CertifiedResponse(client_id="c", client_seq=1, body=Sensitive(b"OK"), batch_root=b"r", batch_count=1, batch_sig=b"s", proof=MerkleProof(leaf_index=0, path=((b"x", True),))),
        2,
    ),
    # value 0 is written as magnitude 01 00 (then the proof-presence byte);
    # a zero-length magnitude would re-encode one byte longer.
    "empty-bigint": encode_message(ResponseBatchShare(root=b"r", count=1, partial=PartialSignature(signer=3, value=0)))[:-3] + b"\x00\x00",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_raises_protocol_error(name):
    with pytest.raises(ProtocolError):
        decode_message(MALFORMED[name])


def test_legitimate_nesting_depth_is_accepted():
    # state transfer -> batch record -> signed batch -> encrypted update
    # is the deepest the protocol nests; a few levels more still decode.
    roundtrip(decode_message(_tower(6))[0])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_vectors_raise_only_protocol_error(data):
    raw = bytearray.fromhex(data.draw(st.sampled_from(sorted(VECTORS.values()))))
    for _ in range(data.draw(st.integers(1, 4))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    try:
        message, end = decode_message(bytes(raw))
    except ProtocolError:
        return
    # Whatever still decodes is no bigger than what was read, so a peer
    # cannot make this node forward or persist more than it sent.
    assert len(encode_message(message)) <= end


if __name__ == "__main__":
    for _name, _message in ALL_NAMED:
        VECTORS.setdefault(_name, encode_message(_message).hex())
    VECTOR_PATH.parent.mkdir(exist_ok=True)
    VECTOR_PATH.write_text(json.dumps(VECTORS, indent=1) + "\n")
