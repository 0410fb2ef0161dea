"""Execution-layer shard awareness: certificates and the ordering tiebreak.

Every executing replica of a sharded deployment runs its application under
:class:`ShardAwareApplication`. Ordinary updates pass straight through to
the wrapped application; bodies carrying a shard-protocol magic are
handled here:

* an **intent** (home shard) applies its payload and answers with the
  intent digest — the threshold signature the shard produces over that
  answer becomes the prepare certificate;
* a **commit** (participant shard) first verifies the home shard's
  threshold certificate — at execution time, so every replica of the
  shard accepts or rejects identically — then applies the payload.

Cross-shard payloads apply under a **last-writer-wins tiebreak**: each
cross-written key remembers the tag ``(client_id, client_seq, home_shard)``
of the intent that wrote it, and an apply is skipped when the key already
holds a later tag. Participant shards may order two commits differently;
the tag rule makes their final states agree anyway. The tag table is part
of the snapshot, so checkpoint comparison and state transfer keep it
byte-consistent across replicas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.app import Application
from repro.core.messages import response_batch_signing_bytes
from repro.crypto.merkle import verify_inclusion
from repro.crypto.verifycache import verify_with
from repro.errors import ProtocolError
from repro.shard.messages import (
    XS_COMMIT_MAGIC,
    XS_INTENT_MAGIC,
    XS_OK,
    XS_PREPARED_MAGIC,
    XS_REJECT,
    CrossShardCommit,
    CrossShardIntent,
)

VersionTag = Tuple[str, int, int]


@dataclass
class ShardCrossContext:
    """What participant replicas need to verify foreign certificates.

    Built empty, filled once every group exists (and before the kernel
    runs): ``response_publics`` maps shard id → that shard's
    response-group threshold public key.
    """

    response_publics: Dict[int, object] = field(default_factory=dict)
    verify_cache: Optional[object] = None


def _set_key(body: bytes) -> Optional[str]:
    """The key of a single ``SET key value`` body, else None.

    Cross-shard payloads are single-key SETs by construction (the router
    only routes multi-*shard* updates through the coordinator when they
    write one foreign-owned key); anything unparseable applies without
    version tracking.
    """
    try:
        parts = body.decode("utf-8").split(" ", 2)
    except UnicodeDecodeError:
        return None
    if len(parts) == 3 and parts[0].upper() == "SET":
        return parts[1]
    return None


class ShardAwareApplication(Application):
    """Wraps one shard's application with the cross-shard protocol."""

    def __init__(
        self,
        inner: Application,
        shard_id: int,
        cross: ShardCrossContext,
    ):
        self.inner = inner
        self.shard_id = shard_id
        self.cross = cross
        self.versions: Dict[str, VersionTag] = {}
        self.cross_applied = 0
        self.cross_skipped = 0
        self.cross_rejected = 0

    # -- execution -----------------------------------------------------------

    def execute(self, client_id: str, client_seq: int, body: bytes) -> Optional[bytes]:
        if body.startswith(XS_INTENT_MAGIC):
            return self._execute_intent(client_id, client_seq, body)
        if body.startswith(XS_COMMIT_MAGIC):
            return self._execute_commit(body)
        # A local write supersedes any cross-shard tag on its key: the
        # owner shard's Prime order is authoritative for owned keys.
        key = _set_key(body)
        if key is not None:
            self.versions.pop(key, None)
        return self.inner.execute(client_id, client_seq, body)

    def _decode(self, payload: bytes):
        from repro.net.codec import decode_message

        message, _ = decode_message(payload)
        return message

    def _execute_intent(
        self, client_id: str, client_seq: int, body: bytes
    ) -> bytes:
        try:
            intent = self._decode(body[len(XS_INTENT_MAGIC):])
        except ProtocolError:
            self.cross_rejected += 1
            return XS_REJECT + b"|malformed-intent"
        if not isinstance(intent, CrossShardIntent):
            self.cross_rejected += 1
            return XS_REJECT + b"|not-an-intent"
        # The digest (and so the certificate) binds the slot the intent
        # was submitted under; a replayed or re-sequenced intent fails.
        if intent.client_id != client_id or intent.client_seq != client_seq:
            self.cross_rejected += 1
            return XS_REJECT + b"|slot-mismatch"
        if intent.home_shard != self.shard_id:
            self.cross_rejected += 1
            return XS_REJECT + b"|wrong-home"
        self._apply_tagged(client_id, client_seq, intent)
        return XS_PREPARED_MAGIC + intent.digest()

    def _execute_commit(self, body: bytes) -> bytes:
        try:
            commit = self._decode(body[len(XS_COMMIT_MAGIC):])
        except ProtocolError:
            self.cross_rejected += 1
            return XS_REJECT + b"|malformed-commit"
        if not isinstance(commit, CrossShardCommit):
            self.cross_rejected += 1
            return XS_REJECT + b"|not-a-commit"
        intent, prepare = commit.intent, commit.prepare
        if prepare.intent_digest != intent.digest():
            self.cross_rejected += 1
            return XS_REJECT + b"|digest-mismatch"
        if (
            prepare.client_id != intent.client_id
            or prepare.home_shard != intent.home_shard
        ):
            self.cross_rejected += 1
            return XS_REJECT + b"|binding-mismatch"
        if self.shard_id not in intent.targets:
            self.cross_rejected += 1
            return XS_REJECT + b"|not-a-participant"
        public = self.cross.response_publics.get(intent.home_shard)
        if public is None:
            self.cross_rejected += 1
            return XS_REJECT + b"|unknown-home-shard"
        if not self._verify_certificate(prepare, public):
            self.cross_rejected += 1
            return XS_REJECT + b"|bad-certificate"
        self._apply_tagged(intent.client_id, intent.client_seq, intent)
        return XS_OK

    def _verify_certificate(self, prepare, public) -> bool:
        if prepare.cert_kind == 0:
            return verify_with(
                self.cross.verify_cache,
                public,
                prepare.response_signing_bytes(),
                prepare.cert_sig,
            )
        if prepare.cert_kind == 1:
            return verify_with(
                self.cross.verify_cache,
                public,
                response_batch_signing_bytes(
                    prepare.batch_root, prepare.batch_count
                ),
                prepare.cert_sig,
            ) and verify_inclusion(
                prepare.batch_root, prepare.leaf(), prepare.proof
            )
        return False

    def _apply_tagged(
        self, client_id: str, client_seq: int, intent: CrossShardIntent
    ) -> None:
        tag = intent.tag()
        key = _set_key(intent.body.data)
        if key is not None:
            current = self.versions.get(key)
            if current is not None and current >= tag:
                self.cross_skipped += 1
                return
            self.versions[key] = tag
        self.cross_applied += 1
        self.inner.execute(client_id, client_seq, intent.body.data)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> bytes:
        return json.dumps(
            {
                "inner": self.inner.snapshot().hex(),
                "versions": {
                    key: list(tag) for key, tag in sorted(self.versions.items())
                },
            },
            sort_keys=True,
        ).encode("utf-8")

    def restore(self, blob: bytes) -> None:
        state = json.loads(blob.decode("utf-8"))
        self.inner.restore(bytes.fromhex(state["inner"]))
        self.versions = {
            key: (tag[0], int(tag[1]), int(tag[2]))
            for key, tag in state["versions"].items()
        }
