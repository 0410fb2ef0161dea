"""Cross-shard protocol messages (ShardLab).

A multi-key update crosses shard boundaries in two phases:

1. **Intent** — the client's router wraps the update body in a
   :class:`CrossShardIntent` and submits it to the client's *home* shard
   through the normal confidential pipeline (signed, encrypted,
   introduced, ordered). Executing the intent applies it on the home
   shard and produces a response whose body binds the intent digest; the
   home shard's threshold signature over that response *is* the prepare
   certificate — no extra signing round exists.
2. **Commit** — the coordinator assembles a :class:`CrossShardCommit`
   (intent + :class:`CrossShardPrepare` certificate) and injects it into
   every other participant shard's order as a gateway-signed client
   update. Participant replicas verify the home shard's threshold
   signature at execution time and apply the body under the deterministic
   last-writer-wins tiebreak (see repro.shard.app).

:class:`ShardMapAnnounce` is the routing tier's epoch announcement: the
(seed, shards, version) triple every router and node derives the identical
:class:`~repro.shard.shardmap.ShardMap` from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.confidentiality import Sensitive


#: Body prefixes marking shard-protocol payloads inside ordinary client
#: updates. The cross-shard path deliberately rides the existing pipeline
#: (signing, encryption, introduction, ordering, response certification),
#: so shard messages appear at exactly two seams: inside update bodies
#: (these magics) and in the codec (tags 36-39).
XS_INTENT_MAGIC = b"XSHARD-INTENT1|"
XS_COMMIT_MAGIC = b"XSHARD-COMMIT1|"
XS_PREPARED_MAGIC = b"XSHARD-PREPARED1|"
XS_OK = b"XSHARD-OK"
XS_REJECT = b"XSHARD-REJECT"


@dataclass(frozen=True)
class ShardMapAnnounce:
    """One routing epoch: everything needed to reconstruct the shard map."""

    seed: int
    shards: int
    version: int


@dataclass(frozen=True)
class CrossShardIntent:
    """A multi-key update bound to its home shard and participant set.

    ``client_seq`` is the home-shard proxy sequence number the intent is
    submitted under, fixed *before* submission so the digest — and
    therefore the prepare certificate — binds the exact slot the home
    shard ordered.
    """

    client_id: str
    client_seq: int
    home_shard: int
    targets: Tuple[int, ...]
    body: Sensitive

    def signing_bytes(self) -> bytes:
        targets = ",".join(str(t) for t in self.targets)
        return (
            f"xintent|{self.client_id}|{self.client_seq}|"
            f"{self.home_shard}|{targets}|".encode("utf-8")
            + self.body.data
        )

    def digest(self) -> bytes:
        return hashlib.sha256(self.signing_bytes()).digest()

    def tag(self) -> Tuple[str, int, int]:
        """Total order over intents for the last-writer-wins tiebreak."""
        return (self.client_id, self.client_seq, self.home_shard)

    def sensitive_parts(self) -> List[str]:
        return [self.body.label]


@dataclass(frozen=True)
class CrossShardPrepare:
    """The home shard's threshold certificate over a prepared intent.

    ``cert_kind`` 0 carries a singleton :class:`ClientResponse` threshold
    signature; kind 1 carries a BatchLab :class:`CertifiedResponse`
    certificate (batch signature + Merkle inclusion proof). Either way the
    signed bytes are the home shard's response to the intent update, whose
    body is ``XS_PREPARED_MAGIC + intent_digest`` — participants rebuild
    those bytes and verify against the home shard's response-group public
    key, so a coordinator cannot graft a certificate from a different
    update onto this intent.
    """

    client_id: str
    client_seq: int
    home_shard: int
    intent_digest: bytes
    cert_kind: int
    cert_sig: bytes
    batch_root: bytes = b""
    batch_count: int = 0
    proof: object = None  # Optional[MerkleProof] when cert_kind == 1

    def response_body(self) -> bytes:
        return XS_PREPARED_MAGIC + self.intent_digest

    def response_signing_bytes(self) -> bytes:
        return (
            f"response|{self.client_id}|{self.client_seq}|".encode("utf-8")
            + self.response_body()
        )

    def leaf(self) -> bytes:
        return hashlib.sha256(self.response_signing_bytes()).digest()


@dataclass(frozen=True)
class CrossShardCommit:
    """Phase two: the certified intent, injected into a participant shard."""

    intent: CrossShardIntent
    prepare: CrossShardPrepare

    def sensitive_parts(self) -> List[str]:
        return self.intent.sensitive_parts()
