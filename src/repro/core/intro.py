"""Introducing client updates into the global order (Section V-A).

Confidential mode: each on-premises replica that receives a proxy-signed
update verifies the proxy signature, deterministically encrypts the update
(so all replicas produce the identical ciphertext), generates a threshold
signature share over the ciphertext, and multicasts the share to its
on-premises peers. Whoever collects f+1 shares can assemble a full
threshold signature that every replica — including data-center replicas
that cannot decrypt the update — can verify before helping to order it.

Plain mode (Spire 1.2 baseline): the proxy's own signature authenticates
the update; the receiving replica injects it directly.

In both modes, one deterministic *introducer* per client actually injects
(Spire's ITRC assigns clients to replicas); the other replicas hold the
assembled update and inject it themselves only if it fails to get ordered
within a rank-staggered failover delay, so a crashed or compromised
introducer costs one timeout, not liveness.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.core.messages import (
    BatchProposal,
    BatchShare,
    ClientUpdate,
    EncryptedUpdate,
    IntroShare,
    SignedUpdateBatch,
    client_alias,
    pack_update,
    update_batch_signing_bytes,
)
from repro.cache import BoundedLru
from repro.core.shares import ShareCollector
from repro.crypto.merkle import merkle_root
from repro.crypto.threshold import combine_with_retry, sign_partial_via
from repro.crypto.verifycache import verify_with
from repro.errors import SignatureError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executing import ExecutingReplica

IntroKey = Tuple[str, int]  # (alias, client_seq)

# Batch-window flush jitter. Desynchronising the two proposers' windows
# avoids lock-step proposal bursts; the stream is module-global and must
# be reseeded explicitly (builder, perf harness, benchmarks conftest) so
# seeded runs — and perf speedup ratios — stay reproducible. The stream
# is only ever drawn from in batch mode, so singleton runs never consume
# it and stay byte-identical whatever it was seeded with.
_JITTER_RNG = random.Random(0)


def seed_batch_jitter(seed: int) -> None:
    """Reseed the batch-window jitter stream deterministically."""
    global _JITTER_RNG
    _JITTER_RNG = random.Random(seed)


def _jittered(window: float) -> float:
    return window * (0.75 + 0.5 * _JITTER_RNG.random())


class IntroductionManager:
    """Update introduction pipeline for one executing replica."""

    def __init__(self, replica: "ExecutingReplica"):
        self._replica = replica
        metrics = replica.metrics
        self._m_rsa_verify = metrics.counter("crypto.rsa.verify", op="client-update")
        self._m_aes_encrypt = metrics.counter("crypto.aes.encrypt")
        self._m_partial = metrics.counter("crypto.threshold.partial", op="intro")
        self._m_combine = metrics.counter("crypto.threshold.combine", op="intro")
        self._m_shares = metrics.counter("intro.shares_received")
        self._m_injected = metrics.counter("intro.injected")
        self._m_failovers = metrics.counter("intro.failovers")
        self._m_batches = metrics.counter("intro.batches")
        self.failover_delay = replica.env.config.failover_delay
        # (alias, seq) -> update digest -> signer -> partial.
        self._shares: Dict[IntroKey, Dict[bytes, Dict[int, object]]] = {}
        self._assembled: Dict[IntroKey, EncryptedUpdate] = {}
        self._plain_pending: Dict[IntroKey, ClientUpdate] = {}
        self._failover_timers: Dict[IntroKey, object] = {}
        self._injected: Set[IntroKey] = set()
        self._done: Set[IntroKey] = set()
        self._awaiting_keys: Dict[str, List[ClientUpdate]] = {}
        # Batch mode (BatchLab) state.
        self._batch_no = 0
        self._batch_buffer: List[EncryptedUpdate] = []
        self._batch_timer: object = None
        # Own proposals awaiting co-signatures, keyed (batch_no, root, count).
        self._batches = ShareCollector(
            replica,
            replica.env.intro_public,
            pool=replica.env.crypto_pool,
            window=replica.response_cache_window,
            counter=self._m_combine,
            on_combined=self._inject_batch,
            on_failed=self._batch_combine_failed,
        )
        self._parked_proposals: List[Tuple[str, BatchProposal]] = []
        # Recently co-signed (proposer, batch_no).
        self._acked_batches = BoundedLru(replica.response_cache_window)
        self._echoed: Set[IntroKey] = set()
        self._batch_failover_initiated: Set[IntroKey] = set()
        self._pref_cache: Dict[str, List[str]] = {}

    # -- entry: proxy-signed update arrives ------------------------------------

    def on_client_update(self, update: ClientUpdate) -> None:
        replica = self._replica
        public = replica.env.client_registry.get(update.client_id)
        if public is None:
            replica.trace("intro.unknown-client", client=update.client_id)
            return
        cost = replica.costs.rsa_verify
        self._m_rsa_verify.inc()
        replica.after(cost, self._verified_update, update, public)

    def _verified_update(self, update: ClientUpdate, public) -> None:
        replica = self._replica
        if not replica.online:
            return
        if not verify_with(
            replica.env.verify_cache, public, update.signing_bytes(), update.signature
        ):
            replica.trace("intro.bad-signature", client=update.client_id)
            return
        alias = client_alias(update.client_id)
        key = (alias, update.client_seq)
        if replica.is_executed(alias, update.client_seq):
            replica.responses.resend(update.client_id, update.client_seq)
            return
        if key in self._done or key in self._injected:
            return
        if replica.confidential:
            self._introduce_confidential(alias, update)
        else:
            self._introduce_plain(alias, update)

    # -- confidential path ---------------------------------------------------------

    def _introduce_confidential(self, alias: str, update: ClientUpdate) -> None:
        replica = self._replica
        if not replica.key_manager.can_encrypt(alias, update.client_seq):
            # Key renewal for this range has not completed; park the update
            # (drained by KeyRenewalManager when the epoch appears).
            self._awaiting_keys.setdefault(alias, []).append(update)
            replica.trace("intro.awaiting-key", alias=alias, seq=update.client_seq)
            return
        packed = pack_update(update.client_id, update.client_seq, update.body.data)
        self._m_aes_encrypt.inc()
        ciphertext = replica.key_manager.encrypt_update(alias, update.client_seq, packed)
        encrypted = EncryptedUpdate(
            alias=alias, client_seq=update.client_seq, ciphertext=ciphertext
        )
        if replica.batching:
            # Batch path: the threshold partial is amortised over the whole
            # window, so only the encryption cost is charged per update.
            replica.after(replica.costs.update_encrypt, self._batch_enqueue, encrypted)
            return
        cost = replica.costs.update_encrypt + replica.costs.threshold_partial
        replica.after(cost, self._share_partial, encrypted)

    # -- batched confidential path (BatchLab) --------------------------------------

    def _batch_enqueue(self, encrypted: EncryptedUpdate) -> None:
        """Record an independently derived ciphertext and, if this replica
        proposes batches for the client, buffer it for the next window."""
        replica = self._replica
        if not replica.online:
            return
        key = (encrypted.alias, encrypted.client_seq)
        if key in self._done or key in self._injected or key in self._assembled:
            return
        self._assembled[key] = encrypted
        self._retry_parked_proposals()
        rank = self.introducer_rank(encrypted.alias)
        if rank <= 1:
            self._batch_buffer.append(encrypted)
            if len(self._batch_buffer) >= replica.env.config.intro_batch_size:
                self._flush_batch()
            elif self._batch_timer is None:
                self._batch_timer = replica.kernel.call_later(
                    _jittered(replica.env.config.intro_batch_window), self._flush_batch
                )
        elif key not in self._failover_timers:
            # Non-proposers arm the same rank-staggered failover as the
            # singleton path, stretched by one batch window so a healthy
            # proposer always beats the timer.
            self._failover_timers[key] = replica.kernel.call_later(
                (rank - 1) * self.failover_delay
                + replica.env.config.intro_batch_window,
                self._batch_failover,
                key,
            )

    def _flush_batch(self) -> None:
        """Close the current window: one Merkle root, one partial, one
        proposal multicast — however many updates are inside."""
        replica = self._replica
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if not replica.online:
            self._batch_buffer.clear()
            return
        live = [
            item
            for item in self._batch_buffer
            if (item.alias, item.client_seq) not in self._done
            and (item.alias, item.client_seq) not in self._injected
        ]
        size = replica.env.config.intro_batch_size
        items, self._batch_buffer = live[:size], live[size:]
        if self._batch_buffer:
            self._batch_timer = replica.kernel.call_later(
                _jittered(replica.env.config.intro_batch_window), self._flush_batch
            )
        if not items:
            return
        self._batch_no += 1
        batch_no = self._batch_no
        root = merkle_root([item.digest() for item in items])
        self._m_partial.inc()
        partial = sign_partial_via(
            replica.env.crypto_pool,
            replica.intro_share,
            update_batch_signing_bytes(root, len(items)),
        )
        proposal = BatchProposal(
            proposer=replica.host, batch_no=batch_no, items=tuple(items)
        )
        replica.after(
            replica.costs.threshold_partial, self._send_proposal, proposal, root, partial
        )

    def _send_proposal(self, proposal: BatchProposal, root: bytes, partial) -> None:
        replica = self._replica
        if not replica.online:
            return
        for peer in replica.on_premises_peers():
            replica.network_send(peer, proposal)
        count = len(proposal.items)
        replica.trace("intro.batch-proposed", batch=proposal.batch_no, count=count)
        self._batches.submit(
            (proposal.batch_no, root, count),
            update_batch_signing_bytes(root, count),
            proposal.items,
            partial,
        )

    def _defer_failover(self, key: IntroKey, delay: float) -> None:
        """Push back an armed failover timer (never create one): fresh
        evidence that someone live is handling ``key`` resets its clock."""
        timer = self._failover_timers.pop(key, None)
        if timer is None:
            return
        timer.cancel()
        self._failover_timers[key] = self._replica.kernel.call_later(
            delay, self._batch_failover, key
        )

    def _note_proposer_alive(self, proposer: str) -> None:
        """A batch proposal from ``proposer`` proves it is alive and
        draining its window. Defer failovers for every pending key it is
        responsible for — including keys still queued in its buffer —
        keeping crash detection without duplicate-intro storms when the
        proposer is merely backlogged. Keys whose two proposers are both
        down get no deferral and fail over on schedule."""
        replica = self._replica
        for key in list(self._failover_timers):
            prefs = self.preference_list(key[0])
            if proposer not in prefs[:2]:
                continue
            rank = prefs.index(replica.host)
            self._defer_failover(key, rank * self.failover_delay)

    def on_batch_proposal(self, src: str, proposal: BatchProposal) -> None:
        """Peer side: sign the proposer's root only after checking every
        item against the ciphertext this replica derived on its own —
        deterministic encryption makes the two bit-identical, so a digest
        match proves the proposer packaged genuine proxy-signed updates."""
        replica = self._replica
        self._note_proposer_alive(proposal.proposer)
        ack_key = (proposal.proposer, proposal.batch_no)
        if ack_key in self._acked_batches:
            return
        keys = [(item.alias, item.client_seq) for item in proposal.items]
        if not keys or all(key in self._done for key in keys):
            return
        missing = False
        for item, key in zip(proposal.items, keys):
            if key in self._done:
                # Already executed; its assembled copy is gone. Execution
                # dedups by (alias, seq), so a stale item is harmless.
                continue
            mine = self._assembled.get(key)
            if mine is None:
                missing = True
                continue
            if mine.digest() != item.digest():
                replica.trace(
                    "intro.batch-mismatch",
                    proposer=proposal.proposer,
                    batch=proposal.batch_no,
                    alias=item.alias,
                    seq=item.client_seq,
                )
                return
        if missing:
            # The proxy fan-out for some item has not reached us yet; park
            # the proposal and retry when the ciphertext is assembled.
            self._parked_proposals.append((src, proposal))
            return
        self._acked_batches.put(ack_key, True)
        root = merkle_root([item.digest() for item in proposal.items])
        self._m_partial.inc()
        partial = sign_partial_via(
            replica.env.crypto_pool,
            replica.intro_share,
            update_batch_signing_bytes(root, len(proposal.items)),
        )
        share = BatchShare(
            proposer=proposal.proposer,
            batch_no=proposal.batch_no,
            root=root,
            count=len(proposal.items),
            partial=partial,
        )
        replica.after(
            replica.costs.threshold_partial,
            replica.network_send,
            proposal.proposer,
            share,
        )

    def _retry_parked_proposals(self) -> None:
        if not self._parked_proposals:
            return
        parked, self._parked_proposals = self._parked_proposals, []
        for src, proposal in parked:
            self.on_batch_proposal(src, proposal)

    def on_batch_share(self, src: str, share: BatchShare) -> None:
        self._m_shares.inc()
        if share.proposer == self._replica.host:
            # A share over another root or width than we proposed under
            # this number lands on a round that never opens.
            self._batches.add((share.batch_no, share.root, share.count), share.partial)

    def _batch_combine_failed(self, round_key, items) -> None:
        self._replica.trace("intro.batch-combine-failed", batch=round_key[0])

    def _inject_batch(self, round_key, items, signature: bytes) -> None:
        replica = self._replica
        batch = SignedUpdateBatch(root=round_key[1], items=items, threshold_sig=signature)
        self._m_batches.inc()
        replica.inject(batch)
        for item in items:
            key = (item.alias, item.client_seq)
            self._injected.add(key)
            self._m_injected.inc()
            replica.trace("intro.injected", alias=item.alias, seq=item.client_seq)

    def _batch_failover(self, key: IntroKey) -> None:
        """The proposers missed their window for this update: fall back to
        the singleton share flow. This replica multicasts its own share;
        peers holding the assembled ciphertext echo theirs back once, and
        the initiator combines at threshold like a rank-0 introducer."""
        self._failover_timers.pop(key, None)
        replica = self._replica
        if key in self._done or key in self._injected or not replica.online:
            return
        encrypted = self._assembled.get(key)
        if encrypted is None:
            return
        self._m_failovers.inc()
        replica.trace("intro.failover", alias=key[0], seq=key[1])
        self._batch_failover_initiated.add(key)
        share = self._sign_share(encrypted, replica.env.crypto_pool)
        replica.after(replica.costs.threshold_partial, self._send_failover_share, share)

    def _send_failover_share(self, share: IntroShare) -> None:
        replica = self._replica
        if not replica.online:
            return
        for peer in replica.on_premises_peers():
            replica.network_send(peer, share)
        self.on_intro_share(replica.host, share)

    def _maybe_echo_share(self, src: str, key: IntroKey, share: IntroShare) -> None:
        """Batch mode: a singleton IntroShare from a peer means a failover
        is under way; contribute this replica's share (once) so the
        initiator can reach threshold."""
        replica = self._replica
        if (
            key in self._echoed
            or key in self._batch_failover_initiated
            or key in self._injected
        ):
            return
        encrypted = self._assembled.get(key)
        if encrypted is None or encrypted.digest() != share.update_digest:
            return
        self._echoed.add(key)
        echo = self._sign_share(encrypted, replica.env.crypto_pool)
        replica.after(replica.costs.threshold_partial, replica.network_send, src, echo)

    def _sign_share(self, encrypted: EncryptedUpdate, pool) -> IntroShare:
        """This replica's singleton share over ``encrypted``."""
        self._m_partial.inc()
        return IntroShare(
            alias=encrypted.alias,
            client_seq=encrypted.client_seq,
            update_digest=encrypted.digest(),
            partial=sign_partial_via(
                pool, self._replica.intro_share, encrypted.signing_bytes()
            ),
        )

    def _share_partial(self, encrypted: EncryptedUpdate) -> None:
        replica = self._replica
        if not replica.online:
            return
        # The singleton path signs in-process, pool or not.
        share = self._sign_share(encrypted, None)
        self._assembled.setdefault((encrypted.alias, encrypted.client_seq), encrypted)
        for peer in replica.on_premises_peers():
            replica.network_send(peer, share)
        self.on_intro_share(replica.host, share)

    def on_intro_share(self, src: str, share: IntroShare) -> None:
        replica = self._replica
        self._m_shares.inc()
        key = (share.alias, share.client_seq)
        if key in self._done:
            return
        if replica.batching and src != replica.host:
            # A singleton share means some peer is already running a
            # failover for this key; stagger rather than pile on.
            self._defer_failover(
                key, max(self.introducer_rank(share.alias), 1) * self.failover_delay
            )
            self._maybe_echo_share(src, key, share)
        partials = self._shares.setdefault(key, {}).setdefault(share.update_digest, {})
        partials[share.partial.signer] = share.partial
        if len(partials) < replica.intro_public.threshold:
            return
        encrypted = self._assembled.get(key)
        if encrypted is None or encrypted.digest() != share.update_digest:
            return
        if key in self._injected:
            return
        rank = self.introducer_rank(share.alias)
        if rank <= 1 or key in self._batch_failover_initiated:
            # Two immediate introducers, one per on-premises site (the
            # preference list alternates sites): a site disconnection
            # costs nothing on the introduction path. Prime deduplicates
            # at execution. A batch-mode failover initiator combines the
            # echoed singleton shares the same way.
            replica.after(replica.costs.threshold_combine, self._combine_and_inject, key)
        elif not replica.batching and key not in self._failover_timers:
            delay = (rank - 1) * self.failover_delay
            self._failover_timers[key] = replica.kernel.call_later(
                delay, self._failover_inject, key
            )

    def _failover_inject(self, key: IntroKey) -> None:
        self._failover_timers.pop(key, None)
        if key in self._done or key in self._injected or not self._replica.online:
            return
        self._m_failovers.inc()
        self._replica.trace("intro.failover", alias=key[0], seq=key[1])
        self._combine_and_inject(key)

    def _combine_and_inject(self, key: IntroKey) -> None:
        replica = self._replica
        if key in self._done or key in self._injected or not replica.online:
            return
        encrypted = self._assembled.get(key)
        if encrypted is None:
            return
        partials = list(self._shares.get(key, {}).get(encrypted.digest(), {}).values())
        if len(partials) < replica.intro_public.threshold:
            return
        self._m_combine.inc()
        try:
            signature = combine_with_retry(
                replica.intro_public, encrypted.signing_bytes(), partials
            )
        except SignatureError:
            # Fewer than f+1 honest shares so far; more are on the way
            # (the proxy fans out to 2f+k+1 on-premises replicas).
            replica.trace("intro.combine-failed", alias=key[0], seq=key[1])
            self._injected.discard(key)
            return
        signed = EncryptedUpdate(
            alias=encrypted.alias,
            client_seq=encrypted.client_seq,
            ciphertext=encrypted.ciphertext,
            threshold_sig=signature,
        )
        self._injected.add(key)
        self._m_injected.inc()
        replica.inject(signed)
        replica.trace("intro.injected", alias=key[0], seq=key[1])

    # -- plain (baseline) path ---------------------------------------------------------

    def _introduce_plain(self, alias: str, update: ClientUpdate) -> None:
        key = (alias, update.client_seq)
        self._plain_pending[key] = update
        rank = self.introducer_rank(alias)
        if rank <= 1:
            self._inject_plain(key)
        elif key not in self._failover_timers:
            self._failover_timers[key] = self._replica.kernel.call_later(
                (rank - 1) * self.failover_delay, self._inject_plain_failover, key
            )

    def _inject_plain_failover(self, key: IntroKey) -> None:
        self._failover_timers.pop(key, None)
        if key in self._done or not self._replica.online:
            return
        self._inject_plain(key)

    def _inject_plain(self, key: IntroKey) -> None:
        update = self._plain_pending.get(key)
        if update is None or key in self._done or key in self._injected:
            return
        self._injected.add(key)
        self._m_injected.inc()
        self._replica.inject(update)
        # Same span milestone as the confidential path: the update entered
        # Prime here, whatever authenticated it.
        self._replica.trace("intro.injected", alias=key[0], seq=key[1])

    # -- shared plumbing ------------------------------------------------------------------

    def introducer_rank(self, alias: str) -> int:
        """This replica's position in the client's introducer preference
        list: a deterministic rotation of the on-premises replicas with
        consecutive ranks alternating between the two on-premises sites,
        so losing a whole site never removes more than every other rank."""
        ordered = self.preference_list(alias)
        return ordered.index(self._replica.host)

    def preference_list(self, alias: str) -> List[str]:
        """The full introducer preference order for a client alias."""
        cached = self._pref_cache.get(alias)
        if cached is not None:
            return cached
        replica = self._replica
        hosts = sorted([replica.host] + replica.on_premises_peers())
        topology = replica.env.network.topology
        by_site: Dict[str, List[str]] = {}
        for host in hosts:
            by_site.setdefault(topology.site_of(host).name, []).append(host)
        columns = [by_site[site] for site in sorted(by_site)]
        interleaved: List[str] = []
        for row in range(max(len(c) for c in columns)):
            for column in columns:
                if row < len(column):
                    interleaved.append(column[row])
        offset = int(hashlib.sha256(alias.encode("utf-8")).hexdigest(), 16)
        rotation = offset % len(interleaved)
        ordered = interleaved[rotation:] + interleaved[:rotation]
        self._pref_cache[alias] = ordered
        return ordered

    def mark_executed(self, alias: str, client_seq: int) -> None:
        """The update was globally ordered and executed: stop failovers."""
        key = (alias, client_seq)
        self._done.add(key)
        timer = self._failover_timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        self._assembled.pop(key, None)
        self._plain_pending.pop(key, None)
        self._injected.discard(key)
        self._echoed.discard(key)
        self._batch_failover_initiated.discard(key)
        self._shares.pop(key, None)
        # An own proposal whose every item got executed through the other
        # proposer's batch will never collect its co-signatures.
        done = self._done
        self._batches.drop_where(
            lambda items: all((i.alias, i.client_seq) in done for i in items)
        )

    def drain_awaiting_keys(self, alias: str) -> None:
        """A new key epoch is available: retry parked updates."""
        parked = self._awaiting_keys.pop(alias, [])
        for update in parked:
            if (alias, update.client_seq) not in self._done:
                self._introduce_confidential(alias, update)

    @property
    def parked_updates(self) -> int:
        return sum(len(v) for v in self._awaiting_keys.values())
