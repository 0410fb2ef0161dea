"""CP-ITM message types (client path, checkpoints, state transfer, keys).

These are the messages the paper's middleware adds around Prime. Messages
that can carry plaintext application data expose ``sensitive_parts()`` so
the confidentiality auditor can track exposure (see
:mod:`repro.core.confidentiality`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.confidentiality import Sensitive
from repro.crypto.merkle import MerkleProof
from repro.crypto.threshold import PartialSignature


def client_alias(client_id: str) -> str:
    """Pseudonymous client identifier exposed to data-center replicas.

    Data-center replicas need *some* stable handle to store updates and to
    let on-premises replicas select decryption keys, but must not learn
    client identities (Section V-A); a one-way alias provides that.
    """
    return hashlib.sha256(client_id.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------
# Client path
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientUpdate:
    """A proxy-signed client update, as received by on-premises replicas."""

    client_id: str
    client_seq: int
    body: Sensitive
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        return (
            f"update|{self.client_id}|{self.client_seq}|".encode("utf-8")
            + self.body.data
        )

    def sensitive_parts(self) -> List[str]:
        return [self.body.label]

    def digest(self) -> bytes:
        return hashlib.sha256(self.signing_bytes()).digest()


@dataclass(frozen=True)
class EncryptedUpdate:
    """A client update after confidential introduction (Section V-A).

    ``ciphertext`` is the deterministic ``iv || AES-CBC`` encryption of the
    update's signing bytes; ``threshold_sig`` (once present) proves f+1
    on-premises replicas vouched for it. Data-center replicas verify the
    threshold signature and store the message without decrypting it.
    """

    alias: str
    client_seq: int
    ciphertext: bytes
    threshold_sig: bytes = b""

    def signing_bytes(self) -> bytes:
        return (
            f"enc-update|{self.alias}|{self.client_seq}|".encode("utf-8")
            + self.ciphertext
        )

    def digest(self) -> bytes:
        return hashlib.sha256(self.signing_bytes()).digest()


@dataclass(frozen=True)
class IntroShare:
    """One on-premises replica's threshold-signature share on an
    encrypted update awaiting introduction."""

    alias: str
    client_seq: int
    update_digest: bytes
    partial: PartialSignature


@dataclass(frozen=True)
class ResponseShare:
    """Threshold-signature share on a client response, exchanged among
    executing replicas so each can assemble the full signed response."""

    client_id: str
    client_seq: int
    response_digest: bytes
    partial: PartialSignature


@dataclass(frozen=True)
class ClientResponse:
    """A fully threshold-signed response, sent to the client's proxy."""

    client_id: str
    client_seq: int
    body: Sensitive
    threshold_sig: bytes

    def signing_bytes(self) -> bytes:
        return (
            f"response|{self.client_id}|{self.client_seq}|".encode("utf-8")
            + self.body.data
        )

    def sensitive_parts(self) -> List[str]:
        return [self.body.label]


# --------------------------------------------------------------------------
# Batched introduction and responses (BatchLab)
# --------------------------------------------------------------------------


def update_batch_signing_bytes(root: bytes, count: int) -> bytes:
    """What the intro group threshold-signs for a batch: the Merkle root
    over the member updates' digests, bound to the batch width."""
    return f"update-batch|{count}|".encode("utf-8") + root


def response_batch_signing_bytes(root: bytes, count: int) -> bytes:
    """What the response group threshold-signs for a batch of responses."""
    return f"response-batch|{count}|".encode("utf-8") + root


@dataclass(frozen=True)
class BatchProposal:
    """A proposer's window of encrypted updates, offered to its
    on-premises peers for co-signing under one Merkle root.

    Peers verify each member against the ciphertext they derived
    independently from the same proxy-signed update (deterministic
    encryption makes the two bit-identical), so co-signing the root never
    requires trusting the proposer about any member's content.
    """

    proposer: str
    batch_no: int
    items: Tuple[EncryptedUpdate, ...]


@dataclass(frozen=True)
class BatchShare:
    """One on-premises replica's threshold share over a proposed batch's
    Merkle root, returned to the proposer for combining."""

    proposer: str
    batch_no: int
    root: bytes
    count: int
    partial: PartialSignature

    def signing_bytes(self) -> bytes:
        return update_batch_signing_bytes(self.root, self.count)


@dataclass(frozen=True)
class SignedUpdateBatch:
    """A fully certified batch of encrypted updates: one threshold
    signature over the Merkle root vouches for every member. Ordered by
    Prime as a single payload, amortizing pre-order message volume and
    signing across the window."""

    root: bytes
    items: Tuple[EncryptedUpdate, ...]
    threshold_sig: bytes

    def signing_bytes(self) -> bytes:
        return update_batch_signing_bytes(self.root, len(self.items))

    def digest(self) -> bytes:
        return hashlib.sha256(self.signing_bytes()).digest()


@dataclass(frozen=True)
class ResponseBatchShare:
    """Threshold share over a Merkle root of response digests, exchanged
    among executing replicas after processing one ordered batch."""

    root: bytes
    count: int
    partial: PartialSignature

    def signing_bytes(self) -> bytes:
        return response_batch_signing_bytes(self.root, self.count)


@dataclass(frozen=True)
class CertifiedResponse:
    """A batched client response: the batch-level threshold signature
    plus this response's Merkle inclusion proof.

    A proxy verifies one threshold signature per *batch* (cacheable
    across the batch's members) and one logarithmic hash path per
    response, instead of one threshold signature per response.
    """

    client_id: str
    client_seq: int
    body: Sensitive
    batch_root: bytes
    batch_count: int
    batch_sig: bytes
    proof: MerkleProof

    def response_signing_bytes(self) -> bytes:
        # Identical framing to ClientResponse.signing_bytes: the Merkle
        # leaf for a response is the digest of the same bytes a singleton
        # response would have threshold-signed directly.
        return (
            f"response|{self.client_id}|{self.client_seq}|".encode("utf-8")
            + self.body.data
        )

    def leaf(self) -> bytes:
        return hashlib.sha256(self.response_signing_bytes()).digest()

    def batch_signing_bytes(self) -> bytes:
        return response_batch_signing_bytes(self.batch_root, self.batch_count)

    def sensitive_parts(self) -> List[str]:
        return [self.body.label]


def pack_update(client_id: str, client_seq: int, body: bytes) -> bytes:
    """Binary encoding of an update's confidential content.

    This is what gets encrypted: the client identity, its sequence number
    (so identical bodies never produce identical ciphertexts), and the
    application payload.
    """
    cid = client_id.encode("utf-8")
    return (
        len(cid).to_bytes(2, "big")
        + cid
        + client_seq.to_bytes(8, "big")
        + body
    )


def unpack_update(packed: bytes) -> Tuple[str, int, bytes]:
    """Inverse of :func:`pack_update`."""
    cid_len = int.from_bytes(packed[:2], "big")
    client_id = packed[2 : 2 + cid_len].decode("utf-8")
    offset = 2 + cid_len
    client_seq = int.from_bytes(packed[offset : offset + 8], "big")
    return client_id, client_seq, packed[offset + 8 :]


# --------------------------------------------------------------------------
# Key renewal (Section V-D)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyProposal:
    """A replica's randomness contribution for a client's next key epoch.

    The seed is encrypted under the hardware-protected shared key, so data
    center replicas store it opaquely while recovering on-premises
    replicas can decrypt it without any key having to be fetched.
    """

    alias: str
    range_start: int
    range_end: int
    proposer: str
    encrypted_seed: bytes

    def signing_bytes(self) -> bytes:
        return (
            f"key-proposal|{self.alias}|{self.range_start}|{self.range_end}|"
            f"{self.proposer}|".encode("utf-8") + self.encrypted_seed
        )

    def digest(self) -> bytes:
        return hashlib.sha256(self.signing_bytes()).digest()


# --------------------------------------------------------------------------
# Checkpoints and state transfer (Section V-C)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResumePoint:
    """Engine-level coordinates of a checkpointed execution state."""

    batch_seq: int
    ordinal: int
    ordered_through: Tuple[Tuple[str, int], ...]

    @staticmethod
    def from_engine(batch_seq: int, ordinal: int, ordered_through: Mapping[str, int]) -> "ResumePoint":
        return ResumePoint(
            batch_seq=batch_seq,
            ordinal=ordinal,
            ordered_through=tuple(sorted(ordered_through.items())),
        )

    def ordered_through_dict(self) -> Dict[str, int]:
        return dict(self.ordered_through)


@dataclass(frozen=True)
class CheckpointMsg:
    """An (encrypted) checkpoint multicast for correctness/stability votes.

    ``blob`` is the hardware-key-encrypted state snapshot in Confidential
    Spire; in the Spire baseline it is the plaintext snapshot wrapped in
    :class:`Sensitive` — which is precisely the confidentiality gap the
    auditor measures when such a message reaches a data-center host.
    """

    ordinal: int
    resume: ResumePoint
    blob: Union[bytes, Sensitive]
    signer: str

    def blob_bytes(self) -> bytes:
        return self.blob.data if isinstance(self.blob, Sensitive) else self.blob

    def blob_digest(self) -> bytes:
        return hashlib.sha256(self.blob_bytes()).digest()

    def sensitive_parts(self) -> List[str]:
        if isinstance(self.blob, Sensitive):
            return [self.blob.label]
        return []


@dataclass(frozen=True)
class CheckpointDeltaMsg:
    """A delta-encoded checkpoint multicast between full snapshots.

    ``blob`` carries the (encrypted) canonical-JSON state *diff* against
    the chain node at ``base_ordinal``; ``full_ordinal`` anchors the chain
    at its full snapshot so a delta can never be applied against the wrong
    lineage. Correctness/stability voting mirrors :class:`CheckpointMsg`
    but digests bind the chain coordinates as well as the blob.
    """

    ordinal: int
    base_ordinal: int
    full_ordinal: int
    resume: ResumePoint
    blob: Union[bytes, Sensitive]
    signer: str

    def blob_bytes(self) -> bytes:
        return self.blob.data if isinstance(self.blob, Sensitive) else self.blob

    def blob_digest(self) -> bytes:
        header = f"ckpt-delta|{self.ordinal}|{self.base_ordinal}|{self.full_ordinal}|"
        return hashlib.sha256(header.encode("utf-8") + self.blob_bytes()).digest()

    def sensitive_parts(self) -> List[str]:
        if isinstance(self.blob, Sensitive):
            return [self.blob.label]
        return []


@dataclass(frozen=True)
class StateXferSolicit:
    """A lagging replica asks on-premises replicas to introduce its state
    transfer request into the global order.

    ``have_seq``/``have_ordinal`` advertise what the requester already
    recovered from its local durable store (0/0 when nothing): responders
    then send only the missing suffix of the log, and omit the checkpoint
    entirely when the requester's is at least as fresh.
    """

    requester: str
    nonce: int
    have_seq: int = 0
    have_ordinal: int = 0


@dataclass(frozen=True)
class XferRequest:
    """The ordered form of a state transfer request (a Prime payload)."""

    requester: str
    nonce: int
    have_seq: int = 0
    have_ordinal: int = 0

    def signing_bytes(self) -> bytes:
        # The legacy form is kept bit-for-bit when no disk state is
        # advertised: this digest feeds ordered-batch trace digests, and
        # default-path traces are a byte-identity contract.
        if self.have_seq or self.have_ordinal:
            return (
                f"xfer|{self.requester}|{self.nonce}"
                f"|{self.have_seq}|{self.have_ordinal}".encode("utf-8")
            )
        return f"xfer|{self.requester}|{self.nonce}".encode("utf-8")

    def digest(self) -> bytes:
        return hashlib.sha256(self.signing_bytes()).digest()


@dataclass(frozen=True)
class BatchRecord:
    """One executed batch as stored in the CP-ITM update log.

    ``entries`` holds (ordinal, payload) pairs where payload is the Prime
    payload object (encrypted update, key proposal, or transfer request).
    ``resume`` is the engine resume point *after* executing this batch.
    """

    batch_seq: int
    resume: ResumePoint
    entries: Tuple[Tuple[int, object], ...]

    def sensitive_parts(self) -> List[str]:
        parts: List[str] = []
        for _ordinal, payload in self.entries:
            getter = getattr(payload, "sensitive_parts", None)
            if getter is not None:
                parts.extend(getter())
        return parts


@dataclass(frozen=True)
class StateXferResponse:
    """A replica's answer to an ordered state transfer request.

    With flow control enabled, one logical response is split into
    ``part_count`` parts sent with pacing; ``part_index`` orders them and
    the checkpoint rides only in part 0. The requester reassembles parts
    before treating the response as received.
    """

    requester: str
    nonce: int
    checkpoint: Optional[CheckpointMsg]
    batches: Tuple[BatchRecord, ...]
    view: int
    responder: str
    part_index: int = 0
    part_count: int = 1
    deltas: Tuple[CheckpointDeltaMsg, ...] = ()

    def sensitive_parts(self) -> List[str]:
        parts: List[str] = []
        if self.checkpoint is not None:
            parts.extend(self.checkpoint.sensitive_parts())
        for delta in self.deltas:
            parts.extend(delta.sensitive_parts())
        for batch in self.batches:
            parts.extend(batch.sensitive_parts())
        return parts
