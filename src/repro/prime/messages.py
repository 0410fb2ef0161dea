"""Prime protocol messages.

All messages are immutable dataclasses. Their size on either substrate
is the length of their :mod:`repro.net.codec` encoding: the simulated
network bills bandwidth and queueing from ``encoded_size``, the live
transport ships those bytes.

Authentication model: as in deployed BFT systems, replica-to-replica
channels are authenticated (Spire uses per-link keys); the simulation's
network layer provides authenticated sender identity, and per-message
signature *cost* is charged through the cost model. The messages that the
paper's contribution actually inspects cryptographically — client updates,
threshold-signed introductions, threshold-signed responses, checkpoints —
carry real signatures produced by :mod:`repro.crypto`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

# An update originator is a (replica incarnation) identity: "r3#0" is
# replica 3's first incarnation; after a proactive recovery it injects as
# "r3#1", which keeps pre-ordering sequence spaces from colliding.
OriginId = str


@dataclass(frozen=True)
class OpaqueUpdate:
    """An update as Prime sees it: opaque payload plus routing metadata.

    In Confidential Spire the payload is an encrypted, threshold-signed
    client update; in the Spire baseline it is a plaintext signed update.
    ``digest`` identifies the update for deduplication and acks; ``size``
    is the length of the payload's codec encoding.
    """

    digest: bytes
    payload: object
    size: int
    # Codec bytes of ``payload``, filled at injection/decode time so the
    # intro, ordering, and store layers never re-encode the nested
    # update. Excluded from equality/repr: it is derived data.
    encoded: Optional[bytes] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PoRequest:
    """Pre-order request: an originator introduces an update."""

    origin: OriginId
    seq: int
    update: OpaqueUpdate


@dataclass(frozen=True)
class PoAck:
    """Acknowledgement that the sender holds (origin, seq)'s po-request."""

    origin: OriginId
    seq: int
    digest: bytes


@dataclass(frozen=True)
class PoAru:
    """Cumulative pre-order acknowledgement vector.

    ``vector[origin]`` is the highest contiguous pre-order sequence from
    ``origin`` for which the sender holds a pre-order certificate.
    """

    vector: Mapping[OriginId, int]


@dataclass(frozen=True)
class PrePrepare:
    """Leader's global ordering proposal for batch ``seq`` in ``view``.

    ``cutoffs`` plays the role of Prime's summary matrix: the batch orders
    every (origin, s) with ordered-so-far < s <= cutoffs[origin].
    """

    view: int
    seq: int
    cutoffs: Mapping[OriginId, int]

    def content_key(self) -> Tuple[int, Tuple[Tuple[OriginId, int], ...]]:
        """Hashable identity of the proposal content (excludes view)."""
        return (self.seq, tuple(sorted(self.cutoffs.items())))


@dataclass(frozen=True)
class Prepare:
    """Echo of a pre-prepare's content in the prepare phase."""

    view: int
    seq: int
    content_digest: bytes


@dataclass(frozen=True)
class Commit:
    """Commit vote: the sender holds a prepare certificate for the batch."""

    view: int
    seq: int
    content_digest: bytes


@dataclass(frozen=True)
class Heartbeat:
    """Leader liveness beacon sent when there is nothing new to order.

    Heartbeats carry no ordering content and run no agreement; they exist
    so followers can distinguish "idle leader" from "dead leader".
    """

    view: int


@dataclass(frozen=True)
class Suspect:
    """Vote to replace the current leader by moving to ``target_view``."""

    target_view: int


@dataclass(frozen=True)
class PreparedCert:
    """A prepared-but-possibly-uncommitted batch reported in a view change."""

    view: int
    seq: int
    cutoffs: Mapping[OriginId, int]


@dataclass(frozen=True)
class VcState:
    """A replica's state report to the new leader of ``view``."""

    view: int
    last_committed: int
    prepared: Tuple[PreparedCert, ...] = ()


@dataclass(frozen=True)
class NewView:
    """New leader's announcement: adopted batches then fresh proposals."""

    view: int
    start_seq: int
    adopted: Tuple[PreparedCert, ...] = ()


@dataclass(frozen=True)
class BatchFetch:
    """Request retransmission of committed batches the sender is missing.

    A replica whose execution is stuck on a gap (it lost the pre-prepare
    or enough commits during a partition) asks its peers for the batches
    it cannot reconstruct; ``seqs`` lists the missing batch sequences.
    """

    seqs: Tuple[int, ...]


@dataclass(frozen=True)
class BatchFetchReply:
    """Attestation of one committed batch's content.

    Only batches the responder itself committed (or executed) are ever
    attested; the requester adopts content once f+1 responders agree, so
    at least one correct replica vouches for it.
    """

    seq: int
    cutoffs: Mapping[OriginId, int]


@dataclass(frozen=True)
class PoFetch:
    """Request retransmission of a missing po-request."""

    origin: OriginId
    seq: int


@dataclass(frozen=True)
class PoFetchReply:
    """Retransmission of a stored po-request."""

    request: PoRequest
