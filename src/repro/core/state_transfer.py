"""Checkpoint-based state transfer (Section V-C).

The protocol that makes the whole architecture work: a replica that fell
behind — it was proactively recovered, or its entire site was disconnected
by a network attack — can catch up using only information held by
data-center replicas, without any plaintext crossing a site boundary.

Flow:

1. The lagging replica multicasts a solicitation to on-premises replicas.
2. They introduce an :class:`XferRequest` into the global order (with the
   usual introducer/failover discipline), so every replica serves the
   request at a consistent point in the total order.
3. Each replica (on-premises or data center) responds directly to the
   requester with its stable (encrypted) checkpoint and the encrypted
   update batches that follow it.
4. The requester accepts a checkpoint attested by f+1 identical copies and
   every batch attested by f+1 identical copies, applies them — decrypting
   only if it is an on-premises replica — and fast-forwards its engine to
   the verified resume point. The engine view is adopted as the (f+1)-th
   largest reported view, which at least one correct replica attests.

Responses are full data from *every* replica, as in the paper's
implementation; the resulting burst is what produces Figure 2's
reconnection latency spikes (the paper calls better flow control future
engineering work).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.messages import (
    BatchRecord,
    CheckpointDeltaMsg,
    CheckpointMsg,
    StateXferResponse,
    StateXferSolicit,
    XferRequest,
)
from repro.net.codec import encoded_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.replica import ReplicaBase


class StateTransferManager:
    """State transfer client+server roles for one replica."""

    def __init__(self, replica: "ReplicaBase", retry_timeout: float = 2.0):
        self._replica = replica
        metrics = replica.metrics
        self._m_initiated = metrics.counter("xfer.initiated")
        self._m_served = metrics.counter("xfer.served")
        self._m_completed = metrics.counter("xfer.completed")
        self._m_bytes_served = metrics.counter("xfer.bytes_served")
        self._m_bytes_received = metrics.counter(
            "xfer.bytes_received", host=replica.host
        )
        self.retry_timeout = retry_timeout
        self._nonce = 0
        self._active_nonce: Optional[int] = None
        # What this requester already holds from its durable store, and
        # what each solicitor advertised (threaded into the ordered
        # XferRequest so every server trims its response consistently).
        self._have: Tuple[int, int] = (0, 0)
        self._solicit_have: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self._responses: Dict[int, Dict[str, StateXferResponse]] = {}
        self._parts: Dict[Tuple[int, str], Dict[int, StateXferResponse]] = {}
        self._served: Set[Tuple[str, int]] = set()
        self._introduced: Set[Tuple[str, int]] = set()
        self._retry_timer = None
        self.completed_count = 0

    @property
    def in_progress(self) -> bool:
        return self._active_nonce is not None

    # -- requester side -----------------------------------------------------------

    def initiate(self, reason: str = "", have_seq: int = 0, have_ordinal: int = 0) -> None:
        """Start a transfer unless one is already running.

        ``have_seq``/``have_ordinal`` advertise state already recovered
        from the local durable store: responders then omit their
        checkpoint when ours is at least as fresh and send only log
        batches above ``have_seq``, so just the missing suffix crosses
        the wire. Defaults (0/0) reproduce the original full transfer.
        """
        replica = self._replica
        if self._active_nonce is not None or not replica.online:
            return
        self._nonce += 1
        self._active_nonce = self._nonce
        self._have = (have_seq, have_ordinal)
        replica.engine.catching_up = True
        self._m_initiated.inc()
        detail = {"nonce": self._nonce, "reason": reason}
        if have_seq or have_ordinal:
            # Keys added only when disk recovery contributed: default-path
            # traces are a byte-identity contract across seeds.
            detail["have_seq"] = have_seq
            detail["have_ordinal"] = have_ordinal
        replica.trace("xfer.initiate", **detail)
        solicit = StateXferSolicit(
            requester=replica.host,
            nonce=self._nonce,
            have_seq=have_seq,
            have_ordinal=have_ordinal,
        )
        for peer in replica.env.on_premises:
            if peer != replica.host:
                replica.network_send(peer, solicit)
        if replica.hosts_application:
            # An on-premises requester can introduce its own request too.
            self.on_solicit(replica.host, solicit)
        self._retry_timer = replica.kernel.call_later(
            self.retry_timeout, self._retry, self._nonce
        )

    def _retry(self, nonce: int) -> None:
        self._retry_timer = None
        if self._active_nonce != nonce or not self._replica.online:
            return
        self._replica.trace("xfer.retry", nonce=nonce)
        self._active_nonce = None
        self.initiate(reason="retry", have_seq=self._have[0], have_ordinal=self._have[1])

    # -- server side: getting the request ordered ------------------------------------

    def on_solicit(self, src: str, solicit: StateXferSolicit) -> None:
        """Introduce the transfer request with the usual introducer
        discipline: two site-diverse replicas inject immediately, the rest
        only if the request fails to get ordered (injections by every
        replica would cost a pre-order ack storm per transfer)."""
        replica = self._replica
        key = (solicit.requester, solicit.nonce)
        if key in self._introduced or not replica.hosts_application:
            return
        self._introduced.add(key)
        self._solicit_have[key] = (solicit.have_seq, solicit.have_ordinal)
        rank = replica.intro.introducer_rank(f"xfer|{solicit.requester}|{solicit.nonce}")
        if rank <= 1:
            self._inject_request(key)
        else:
            delay = (rank - 1) * replica.env.config.failover_delay
            replica.kernel.call_later(delay, self._inject_failover, key)

    def _inject_failover(self, key: Tuple[str, int]) -> None:
        if key in self._served or not self._replica.online:
            return
        self._inject_request(key)

    def _inject_request(self, key: Tuple[str, int]) -> None:
        have_seq, have_ordinal = self._solicit_have.get(key, (0, 0))
        request = XferRequest(
            requester=key[0], nonce=key[1], have_seq=have_seq, have_ordinal=have_ordinal
        )
        self._replica.inject(request)

    def on_ordered_request(self, request: XferRequest) -> None:
        """The transfer request reached the global order: serve it."""
        replica = self._replica
        key = (request.requester, request.nonce)
        if key in self._served:
            return
        self._served.add(key)
        if request.requester == replica.host:
            return
        stable = replica.checkpoints.stable
        chain = tuple(replica.checkpoints.stable_deltas)
        tip_ordinal = replica.checkpoints.stable_tip_ordinal()
        tip_resume = replica.checkpoints.stable_tip_resume()
        # Trim to what the requester does not already hold. Three cases:
        # they are at/past our chain tip (nothing but log tail); they hold
        # our full snapshot but trail the delta chain (ship only the delta
        # suffix — the CompactLab cheap catch-up path); they trail the
        # full itself (ship full + whole chain).
        deltas: Tuple[CheckpointDeltaMsg, ...] = ()
        if stable is None or tip_ordinal <= request.have_ordinal:
            checkpoint = None
        elif stable.ordinal <= request.have_ordinal:
            checkpoint = None
            deltas = tuple(d for d in chain if d.ordinal > request.have_ordinal)
        else:
            checkpoint = stable
            deltas = chain
        after_seq = tip_resume.batch_seq if tip_resume is not None else 0
        after_seq = max(after_seq, request.have_seq)
        batches = replica.update_log_after(after_seq)
        self._m_served.inc()
        self._m_bytes_served.inc(sum(map(encoded_size, batches)))
        chunk_bytes = replica.env.config.xfer_chunk_bytes
        if not chunk_bytes:
            response = StateXferResponse(
                requester=request.requester,
                nonce=request.nonce,
                checkpoint=checkpoint,
                batches=tuple(batches),
                view=replica.engine.view,
                responder=replica.host,
                deltas=deltas,
            )
            replica.network_send(request.requester, response)
            return
        self._serve_chunked(request, checkpoint, batches, chunk_bytes, deltas)

    def _serve_chunked(
        self, request, stable, batches, chunk_bytes: int, deltas=()
    ) -> None:
        """Flow-controlled serving: split the update log into bounded
        parts and pace them out, so catch-up traffic interleaves with
        live protocol traffic instead of monopolizing the pipes (the
        "better message flow control" the paper leaves as future work)."""
        replica = self._replica
        chunks: List[List[BatchRecord]] = [[]]
        budget = chunk_bytes
        for record in batches:
            size = encoded_size(record)
            if chunks[-1] and size > budget:
                chunks.append([])
                budget = chunk_bytes
            chunks[-1].append(record)
            budget -= size
        part_count = len(chunks)
        for index, chunk in enumerate(chunks):
            part = StateXferResponse(
                requester=request.requester,
                nonce=request.nonce,
                checkpoint=stable if index == 0 else None,
                batches=tuple(chunk),
                view=replica.engine.view,
                responder=replica.host,
                part_index=index,
                part_count=part_count,
                deltas=tuple(deltas) if index == 0 else (),
            )
            delay = index * replica.env.config.xfer_chunk_interval
            if delay > 0:
                replica.kernel.call_later(
                    delay, replica.network_send, request.requester, part
                )
            else:
                replica.network_send(request.requester, part)

    # -- requester side: assembling responses -------------------------------------------

    def on_response(self, src: str, response: StateXferResponse) -> None:
        replica = self._replica
        if response.nonce != self._active_nonce or response.requester != replica.host:
            return
        # Counted per part, pre-reassembly: this is what actually crossed
        # the wire, the quantity disk recovery exists to shrink.
        self._m_bytes_received.inc(encoded_size(response))
        if response.part_count > 1:
            response = self._reassemble(response)
            if response is None:
                return
        bucket = self._responses.setdefault(response.nonce, {})
        bucket[response.responder] = response
        if len(bucket) >= replica.f + 1:
            self._try_assemble(response.nonce)

    def _reassemble(self, part: StateXferResponse) -> Optional[StateXferResponse]:
        """Collect flow-controlled parts; return the merged response once
        complete, else None."""
        key = (part.nonce, part.responder)
        parts = self._parts.setdefault(key, {})
        parts[part.part_index] = part
        if len(parts) < part.part_count:
            return None
        del self._parts[key]
        ordered = [parts[i] for i in sorted(parts)]
        batches = tuple(record for piece in ordered for record in piece.batches)
        return StateXferResponse(
            requester=part.requester,
            nonce=part.nonce,
            checkpoint=ordered[0].checkpoint,
            batches=batches,
            view=max(piece.view for piece in ordered),
            responder=part.responder,
            deltas=ordered[0].deltas,
        )

    def _try_assemble(self, nonce: int) -> None:
        replica = self._replica
        responses = list(self._responses.get(nonce, {}).values())
        threshold = replica.f + 1

        checkpoint = self._agree_checkpoint(responses, threshold)
        if checkpoint is _NO_AGREEMENT:
            # Fewer than f+1 responders agree on any checkpoint: installing
            # state here could adopt a fabrication by f liars. Refuse and
            # keep waiting (the retry timer re-solicits if needed).
            replica.trace(
                "xfer.insufficient",
                nonce=nonce,
                responses=len(responses),
                threshold=threshold,
            )
            return
        deltas = self._agree_deltas(responses, checkpoint, threshold)
        if deltas:
            tip_resume = deltas[-1].resume
        elif checkpoint is not None:
            tip_resume = checkpoint.resume
        else:
            tip_resume = None
        if (
            tip_resume is not None
            and self._have != (0, 0)
            and tip_resume.batch_seq <= self._have[0]
        ):
            # Our disk recovery already covers this chain's prefix;
            # restoring it would roll the application back behind records
            # we replayed locally. Treat the whole chain as already held.
            checkpoint = None
            deltas = ()
        # With no chain to install, batches continue from what we
        # recovered locally (0 when there was no disk recovery —
        # responders only omit their checkpoint against a nonzero have).
        if deltas:
            base_seq = deltas[-1].resume.batch_seq
        elif checkpoint is not None:
            base_seq = checkpoint.resume.batch_seq
        else:
            base_seq = self._have[0]

        batches = self._agree_batches(responses, base_seq, threshold)
        if batches is None:
            return

        views = sorted((r.view for r in responses), reverse=True)
        adopted_view = views[threshold - 1] if len(views) >= threshold else 0

        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        self._active_nonce = None
        self._responses.pop(nonce, None)
        self.completed_count += 1
        self._m_completed.inc()
        detail = {
            "nonce": nonce,
            "checkpoint": checkpoint.ordinal if checkpoint else 0,
            "batches": len(batches),
        }
        if deltas:
            # Key added only on the delta path: default-path traces are a
            # byte-identity contract across seeds.
            detail["deltas"] = len(deltas)
        replica.trace("xfer.complete", **detail)
        replica.engine.catching_up = False
        replica.apply_state_transfer(checkpoint, batches, adopted_view, deltas=deltas)

    def _agree_checkpoint(self, responses, threshold: int):
        """The highest checkpoint attested by >= threshold responders.

        A group of responders that agree there is *no* checkpoint yet is
        also an agreement (young system).
        """
        votes: Dict[Tuple[int, bytes], List[CheckpointMsg]] = {}
        none_votes = 0
        for response in responses:
            if response.checkpoint is None:
                none_votes += 1
            else:
                key = (response.checkpoint.ordinal, response.checkpoint.blob_digest())
                votes.setdefault(key, []).append(response.checkpoint)
        agreed = [
            group[0] for group in votes.values() if len(group) >= threshold
        ]
        if agreed:
            return max(agreed, key=lambda c: c.ordinal)
        if none_votes >= threshold:
            return None
        return _NO_AGREEMENT

    def _agree_deltas(
        self, responses, checkpoint, threshold: int
    ) -> Tuple[CheckpointDeltaMsg, ...]:
        """The longest contiguous f+1-attested delta chain above the anchor.

        The anchor is the agreed full snapshot, or — when responders
        omitted it because our ``have_ordinal`` proved we hold it — our own
        stable chain tip. Each link's digest binds its (ordinal, base,
        full) coordinates, so link-by-link agreement composes into chain
        agreement. Orphan links that do not extend the anchor are ignored;
        recovery then proceeds from the full snapshot plus batches alone.
        """
        if checkpoint is not None:
            anchor_full = checkpoint.ordinal
            anchor_tip = checkpoint.ordinal
        else:
            own = self._replica.checkpoints
            if own.stable is None:
                return ()
            anchor_full = own.stable.ordinal
            anchor_tip = own.stable_tip_ordinal()
        votes: Dict[Tuple[int, bytes], List[CheckpointDeltaMsg]] = {}
        for response in responses:
            for delta in response.deltas:
                key = (delta.ordinal, delta.blob_digest())
                votes.setdefault(key, []).append(delta)
        by_base: Dict[int, CheckpointDeltaMsg] = {}
        for group in votes.values():
            if len(group) >= threshold:
                delta = group[0]
                if delta.full_ordinal == anchor_full:
                    by_base.setdefault(delta.base_ordinal, delta)
        chain: List[CheckpointDeltaMsg] = []
        tip = anchor_tip
        while tip in by_base:
            delta = by_base.pop(tip)
            chain.append(delta)
            tip = delta.ordinal
        return tuple(chain)

    def _agree_batches(
        self, responses, base_seq: int, threshold: int
    ) -> Optional[List[BatchRecord]]:
        """The longest contiguous f+1-attested run of batches after base_seq.

        Returns at least an empty list once agreement on "nothing follows
        the checkpoint" is possible; None means not enough evidence yet.
        """
        votes: Dict[int, Dict[bytes, List[BatchRecord]]] = {}
        for response in responses:
            for record in response.batches:
                if record.batch_seq <= base_seq:
                    continue
                digest = _record_digest(record)
                votes.setdefault(record.batch_seq, {}).setdefault(digest, []).append(record)
        accepted: List[BatchRecord] = []
        seq = base_seq + 1
        while True:
            groups = votes.get(seq)
            if not groups:
                break
            winner = None
            for group in groups.values():
                if len(group) >= threshold:
                    winner = group[0]
                    break
            if winner is None:
                break
            accepted.append(winner)
            seq += 1
        return accepted


class _NoAgreement:
    """Sentinel distinguishing 'no agreement yet' from 'agreed: None'."""


_NO_AGREEMENT = _NoAgreement()


def _record_digest(record: BatchRecord) -> bytes:
    import hashlib

    hasher = hashlib.sha256()
    hasher.update(str(record.batch_seq).encode())
    hasher.update(str(record.resume).encode())
    for ordinal, payload in record.entries:
        hasher.update(str(ordinal).encode())
        digest = getattr(payload, "digest", None)
        hasher.update(digest() if callable(digest) else repr(payload).encode())
    return hasher.digest()
