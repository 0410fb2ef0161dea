"""Certifying responses to clients (Sections V-B, V-C).

Every executing replica produces the same response to an ordered update;
the client's proxy accepts it only under the service's threshold
signature, so f compromised replicas cannot forge one. Singleton mode
certifies each response on its own: the replicas exchange partial
signatures over the response bytes and whoever holds f+1 combines them.
Batch mode (BatchLab) certifies every response produced by one ordered
Prime batch under a single threshold signature over a Merkle root, and
each client gets its response with an inclusion proof.

Certified responses are kept per client for a window of sequence numbers
— the proxy pipelines updates, so the reply for seq n must stay
replayable to retransmits after seqs n+1.. complete — and travel inside
encrypted checkpoints, so a recovered replica can still answer them.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from repro.core.confidentiality import Sensitive
from repro.core.messages import (
    CertifiedResponse,
    ClientResponse,
    ResponseBatchShare,
    ResponseShare,
    client_alias,
    response_batch_signing_bytes,
)
from repro.core.shares import ShareCollector
from repro.crypto.merkle import MerkleProof, merkle_proof, merkle_root
from repro.crypto.threshold import sign_partial_via

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executing import ExecutingReplica

Response = Union[ClientResponse, CertifiedResponse]
Item = Tuple[str, int, bytes]  # (client_id, client_seq, response body)


def _leaf(client_id: str, client_seq: int, body: bytes) -> bytes:
    # Matches ClientResponse.signing_bytes / CertifiedResponse.leaf: the
    # Merkle leaf is the digest of the bytes a singleton response would
    # have threshold-signed directly.
    return hashlib.sha256(
        f"response|{client_id}|{client_seq}|".encode("utf-8") + body
    ).digest()


def _to_state(seq: int, response: Response) -> list:
    if isinstance(response, CertifiedResponse):
        # Versioned by length: certified entries carry the batch
        # certificate and inclusion proof alongside the body.
        return [
            seq,
            response.body.data.hex(),
            response.batch_sig.hex(),
            response.batch_root.hex(),
            response.batch_count,
            response.proof.leaf_index,
            [[sib.hex(), int(right)] for sib, right in response.proof.path],
        ]
    return [seq, response.body.data.hex(), response.threshold_sig.hex()]


def _from_state(client: str, entry: list) -> Response:
    if len(entry) == 3:
        seq, body_hex, sig_hex = entry
        return ClientResponse(
            client_id=client,
            client_seq=int(seq),
            body=Sensitive(bytes.fromhex(body_hex), label="client-response"),
            threshold_sig=bytes.fromhex(sig_hex),
        )
    seq, body_hex, sig_hex, root_hex, count, leaf_index, path = entry
    return CertifiedResponse(
        client_id=client,
        client_seq=int(seq),
        body=Sensitive(bytes.fromhex(body_hex), label="client-response"),
        batch_root=bytes.fromhex(root_hex),
        batch_count=int(count),
        batch_sig=bytes.fromhex(sig_hex),
        proof=MerkleProof(
            leaf_index=int(leaf_index),
            path=tuple((bytes.fromhex(sib), bool(right)) for sib, right in path),
        ),
    )


class ResponseManager:
    """Response certification pipeline for one executing replica."""

    def __init__(self, replica: "ExecutingReplica"):
        self._replica = replica
        metrics = replica.metrics
        self._m_partial = metrics.counter("crypto.threshold.partial", op="response")
        self._m_combined = metrics.counter("response.combined")
        #: client_id -> client_seq -> certified response, the newest
        #: ``response_cache_window`` sequences per client.
        self.cache: Dict[str, Dict[int, Response]] = {}
        # Batch mode: responses produced while executing one ordered
        # batch, and the per-update CPU cost they accrued.
        self._buffer: List[Item] = []
        self._buffer_cost = 0.0
        # A deployment runs one mode, so one collector: keyed by
        # (client, seq, digest) for singletons, by Merkle root for batches.
        batching = replica.batching
        self._rounds = ShareCollector(
            replica,
            replica.env.response_public,
            pool=replica.env.crypto_pool if batching else None,
            window=replica.response_cache_window,
            counter=metrics.counter("crypto.threshold.combine", op="response"),
            on_combined=self._batch_certified if batching else self._certified,
            on_failed=self._batch_failed if batching else self._failed,
        )

    # -- entry: the replica executed an update ---------------------------------

    def submit(self, client_id: str, client_seq: int, body: bytes, cost: float) -> None:
        """Certify ``body`` as the response to (client, seq); ``cost`` is
        the CPU time executing the update took."""
        replica = self._replica
        if replica.batching:
            # The threshold partial is amortised over every response from
            # this ordered batch; per-update costs accumulate and are
            # charged once at the flush.
            self._buffer.append((client_id, client_seq, body))
            self._buffer_cost += cost
            return
        replica.after(
            cost + replica.costs.threshold_partial,
            self._share,
            ClientResponse(
                client_id=client_id,
                client_seq=client_seq,
                body=Sensitive(body, label="client-response"),
                threshold_sig=b"",
            ),
        )

    def flush(self) -> None:
        """An ordered batch finished executing: certify what it produced."""
        if not self._buffer:
            return
        replica = self._replica
        items, self._buffer = tuple(self._buffer), []
        cost = self._buffer_cost + replica.costs.threshold_partial
        self._buffer_cost = 0.0
        replica.after(cost, self._share_batch, items)

    # -- singleton certification -------------------------------------------------

    def _share(self, unsigned: ClientResponse) -> None:
        replica = self._replica
        if not replica.online:
            return
        signing = unsigned.signing_bytes()
        self._m_partial.inc()
        partial = replica.response_share.sign_partial(signing)
        digest = hashlib.sha256(signing).digest()
        share = ResponseShare(
            client_id=unsigned.client_id,
            client_seq=unsigned.client_seq,
            response_digest=digest,
            partial=partial,
        )
        for peer in replica.executing_peers():
            replica.network_send(peer, share)
        self._rounds.submit(
            (unsigned.client_id, unsigned.client_seq, digest), signing, unsigned, partial
        )

    def on_share(self, src: str, share: ResponseShare) -> None:
        self._rounds.add(
            (share.client_id, share.client_seq, share.response_digest), share.partial
        )

    def _failed(self, key, unsigned: ClientResponse) -> None:
        self._replica.trace(
            "response.combine-failed", client=unsigned.client_id, seq=unsigned.client_seq
        )

    def _certified(self, key, unsigned: ClientResponse, signature: bytes) -> None:
        self._publish(replace(unsigned, threshold_sig=signature))

    # -- batched certification (BatchLab) -------------------------------------------

    def _share_batch(self, items: Tuple[Item, ...]) -> None:
        replica = self._replica
        if not replica.online:
            return
        root = merkle_root([_leaf(*item) for item in items])
        message = response_batch_signing_bytes(root, len(items))
        self._m_partial.inc()
        partial = sign_partial_via(replica.env.crypto_pool, replica.response_share, message)
        share = ResponseBatchShare(root=root, count=len(items), partial=partial)
        for peer in replica.executing_peers():
            replica.network_send(peer, share)
        self._rounds.submit(root, message, items, partial)

    def on_batch_share(self, src: str, share: ResponseBatchShare) -> None:
        self._rounds.add(share.root, share.partial)

    def _batch_failed(self, root: bytes, items: Tuple[Item, ...]) -> None:
        self._replica.trace("response.batch-combine-failed", count=len(items))

    def _batch_certified(self, root: bytes, items: Tuple[Item, ...], batch_sig: bytes) -> None:
        leaves = [_leaf(*item) for item in items]
        for index, (client_id, client_seq, body) in enumerate(items):
            self._publish(
                CertifiedResponse(
                    client_id=client_id,
                    client_seq=client_seq,
                    body=Sensitive(body, label="client-response"),
                    batch_root=root,
                    batch_count=len(items),
                    batch_sig=batch_sig,
                    proof=merkle_proof(leaves, index),
                )
            )

    # -- delivery ------------------------------------------------------------------

    def _publish(self, response: Response) -> None:
        """Cache a freshly certified response and send it to the client's
        proxy if this replica is in the client's responder set (the first
        f+1 on-premises replicas in preference order)."""
        replica = self._replica
        cache = self.cache.setdefault(response.client_id, {})
        cache[response.client_seq] = response
        while len(cache) > replica.response_cache_window:
            del cache[min(cache)]
        self._m_combined.inc()
        alias = client_alias(response.client_id)
        # Span milestone: the response is fully threshold-signed here; what
        # remains is the network trip back to the proxy plus verification.
        replica.trace("response.combined", alias=alias, seq=response.client_seq)
        if not replica.env.network.topology.site_of(replica.host).is_on_premises:
            return
        if replica.intro.introducer_rank(alias) > replica.f:
            return
        self._send(response.client_id, response)

    def resend(self, client_id: str, client_seq: int) -> None:
        """A retransmitted update for an already-executed sequence: resend
        the cached threshold-signed response (Section V-C)."""
        cached = self.cache.get(client_id, {}).get(client_seq)
        if cached is not None:
            self._send(client_id, cached)

    def _send(self, client_id: str, response: Response) -> None:
        proxy = self._replica.env.proxy_of_client.get(client_id)
        if proxy is not None:
            self._replica.network_send(proxy, response)

    # -- checkpoint integration ----------------------------------------------------

    def to_state(self, by_seq: bool) -> dict:
        """The response cache for an encrypted checkpoint. ``by_seq`` keys
        each client's entries by ``str(seq)`` so a state diff ships only
        new and evicted entries; otherwise the legacy list shape, whose
        bytes are a trace-identity contract for the delta-off path."""
        state = {}
        for client, cache in sorted(self.cache.items()):
            entries = [(seq, _to_state(seq, r)) for seq, r in sorted(cache.items())]
            state[client] = (
                {str(seq): entry for seq, entry in entries}
                if by_seq
                else [entry for _seq, entry in entries]
            )
        return state

    def restore_state(self, state: dict) -> None:
        self.cache = {}
        for client, entries in state.items():
            cache = self.cache.setdefault(client, {})
            # Either shape of :meth:`to_state`; the entries are identical.
            if isinstance(entries, dict):
                entries = [entries[key] for key in sorted(entries, key=int)]
            for entry in entries:
                response = _from_state(client, entry)
                cache[response.client_seq] = response
