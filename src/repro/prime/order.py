"""Prime's global ordering sub-protocol.

The leader periodically (every ``pp_interval``) turns its aggregated
knowledge of pre-order certificates into a PRE-PREPARE carrying a
cumulative cutoff vector: batch ``s`` globally orders every (origin, seq)
pair above what previous batches covered, up to the vector. Followers run
a prepare/commit agreement on the batch with 2f+k+1 quorums; committed
batches are executed in sequence order, expanding deterministically into
individually-numbered updates (ordinals) that the application layer
consumes.

When the leader has nothing new to order it emits a heartbeat instead of
an empty batch, so idle periods cost O(n) messages rather than O(n^2).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.prime.messages import (
    BatchFetch,
    BatchFetchReply,
    Commit,
    Heartbeat,
    OriginId,
    PoRequest,
    PrePrepare,
    Prepare,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.prime.engine import PrimeReplica

BatchEntry = Tuple[int, OriginId, int, object]  # (ordinal, origin, po_seq, update)


def content_digest(seq: int, cutoffs: Dict[OriginId, int]) -> bytes:
    """Canonical digest of a proposal's ordering content."""
    canonical = f"{seq}|" + "|".join(
        f"{origin}:{cut}" for origin, cut in sorted(cutoffs.items())
    )
    return hashlib.sha256(canonical.encode("utf-8")).digest()


class GlobalOrder:
    """Global ordering state machine for one replica."""

    def __init__(self, engine: "PrimeReplica"):
        self._engine = engine
        metrics = engine.metrics
        self._m_proposals = metrics.counter("prime.order.proposals")
        self._m_heartbeats = metrics.counter("prime.order.heartbeats")
        self._m_committed = metrics.counter("prime.order.committed")
        self._m_batches = metrics.counter("prime.order.batches_executed")
        self._m_updates = metrics.counter("prime.order.updates_ordered")
        self._m_batch_size = metrics.histogram("prime.order.batch_size")
        # Accepted proposals: seq -> (view, cutoffs, digest).
        self.pre_prepares: Dict[int, Tuple[int, Dict[OriginId, int], bytes]] = {}
        self._prepare_votes: Dict[Tuple[int, int, bytes], Set[str]] = {}
        self._commit_votes: Dict[Tuple[int, int, bytes], Set[str]] = {}
        self._prepared: Set[Tuple[int, int]] = set()          # (view, seq)
        self._commit_sent: Set[Tuple[int, int]] = set()
        self.committed: Dict[int, Dict[OriginId, int]] = {}   # seq -> cutoffs
        self.last_executed = 0
        self.ordinal = 0
        self.ordered_through: Dict[OriginId, int] = {}
        # Executed batch metadata kept for state-transfer resume points and
        # po-request garbage collection: seq -> (ordinal_after, pairs).
        self.executed_batches: Dict[int, Tuple[int, List[Tuple[OriginId, int]]]] = {}
        # Cutoff vectors of executed batches, kept so peers stuck on a
        # sequence gap can re-fetch the batch content (pre_prepares[seq]
        # may be overwritten by a later view and cannot serve as the
        # attested record of what was actually committed).
        self.executed_cutoffs: Dict[int, Dict[OriginId, int]] = {}
        # Batch-fill reconciliation state: seq -> content digest -> voters.
        self._fill_votes: Dict[int, Dict[bytes, Dict[str, Dict[OriginId, int]]]] = {}
        self._fill_timer = None
        # When execution first stalled below the committed horizon, on a
        # batch that never committed here or on missing po-requests for
        # one that did (None while execution is advancing).
        self._blocked_since = None
        # Leader-side proposal state.
        self.propose_seq = 0
        self._proposed_vector: Dict[OriginId, int] = {}
        self._tick_timer = None
        # Pre-prepares for views we have not adopted yet: a replica that
        # is about to learn of a view change (f+1 evidence) must not lose
        # the proposal that arrived moments earlier.
        self._future_pre_prepares: Dict[int, List[Tuple[str, PrePrepare]]] = {}

    # -- leader duty cycle ---------------------------------------------------

    def start_leader_duty(self) -> None:
        """Begin (or resume) periodic proposing; idempotent."""
        self.stop_leader_duty()
        self._tick_timer = self._engine.kernel.call_later(
            self._engine.config.pp_interval, self._tick
        )

    def stop_leader_duty(self) -> None:
        if self._tick_timer is not None:
            self._tick_timer.cancel()
            self._tick_timer = None

    def _tick(self) -> None:
        self._tick_timer = None
        if not self._engine.online or not self._engine.is_leader():
            return
        self._propose_if_new()
        self._tick_timer = self._engine.kernel.call_later(
            self._engine.config.pp_interval, self._tick
        )

    def _propose_if_new(self) -> None:
        cutoffs: Dict[OriginId, int] = {}
        advanced = False
        for origin in self._engine.preorder.known_origins():
            known = self._engine.preorder.max_known(origin)
            floor = max(
                self._proposed_vector.get(origin, 0), self.ordered_through.get(origin, 0)
            )
            if known > floor:
                advanced = True
            cutoffs[origin] = max(known, floor)
        if not advanced:
            self._m_heartbeats.inc()
            self._engine.multicast(Heartbeat(view=self._engine.view))
            return
        self._m_proposals.inc()
        self.propose_seq = max(self.propose_seq, self.last_committed_contiguous()) + 1
        proposal = PrePrepare(
            view=self._engine.view, seq=self.propose_seq, cutoffs=dict(cutoffs)
        )
        self._proposed_vector = dict(cutoffs)
        self._engine.multicast(proposal)
        self.on_pre_prepare(self._engine.replica_id, proposal)

    def on_aru_advanced(self) -> None:
        """A pre-order certificate advanced: there is work to order."""
        self._engine.view_change.note_work_pending()

    def last_committed_contiguous(self) -> int:
        seq = self.last_executed
        while (seq + 1) in self.committed or (seq + 1) in self.executed_batches:
            seq += 1
        return seq

    # -- agreement handlers ----------------------------------------------------

    def on_pre_prepare(self, src: str, message: PrePrepare) -> None:
        engine = self._engine
        if message.view > engine.view:
            stash = self._future_pre_prepares.setdefault(message.view, [])
            if len(stash) < 1000:
                stash.append((src, message))
            return
        if message.view != engine.view:
            return
        if src != engine.config.leader_of(message.view):
            return
        engine.view_change.note_leader_alive()
        existing = self.pre_prepares.get(message.seq)
        digest = content_digest(message.seq, dict(message.cutoffs))
        if existing is not None:
            old_view, _cut, old_digest = existing
            if old_view == message.view and old_digest != digest:
                # Conflicting proposals from the leader in one view: keep
                # the first, ignore the second (a Byzantine leader only
                # hurts itself; followers will time it out).
                return
            if old_view > message.view:
                return
        self.pre_prepares[message.seq] = (message.view, dict(message.cutoffs), digest)
        self._broadcast_prepare(message.view, message.seq, digest)

    def replay_future_pre_prepares(self, view: int) -> None:
        """Called on view adoption: process stashed proposals for ``view``
        and drop stashes for views that can no longer be adopted."""
        for stale in [v for v in self._future_pre_prepares if v < view]:
            del self._future_pre_prepares[stale]
        for src, message in self._future_pre_prepares.pop(view, []):
            self.on_pre_prepare(src, message)

    def on_heartbeat(self, src: str, message: Heartbeat) -> None:
        engine = self._engine
        if message.view == engine.view and src == engine.config.leader_of(message.view):
            engine.view_change.note_leader_alive()

    def _broadcast_prepare(self, view: int, seq: int, digest: bytes) -> None:
        prepare = Prepare(view=view, seq=seq, content_digest=digest)
        self._engine.multicast(prepare)
        self.on_prepare(self._engine.replica_id, prepare)

    def on_prepare(self, src: str, message: Prepare) -> None:
        key = (message.view, message.seq, message.content_digest)
        votes = self._prepare_votes.setdefault(key, set())
        votes.add(src)
        self._maybe_prepared(message.view, message.seq, message.content_digest)

    def _maybe_prepared(self, view: int, seq: int, digest: bytes) -> None:
        if view < self._engine.view:
            # A replica that moved to a later view has already reported
            # its prepared certificates to the new leader; becoming
            # prepared in an abandoned view *after* that report would
            # let an old-view agreement finish behind the new leader's
            # back and commit content the new view re-proposes
            # differently (the PBFT view-change safety argument relies
            # on participation stopping at the report).
            return
        if (view, seq) in self._prepared:
            return
        stored = self.pre_prepares.get(seq)
        if stored is None or stored[0] != view or stored[2] != digest:
            return
        votes = self._prepare_votes.get((view, seq, digest), set())
        if len(votes) < self._engine.config.quorum:
            return
        self._prepared.add((view, seq))
        if (view, seq) not in self._commit_sent:
            self._commit_sent.add((view, seq))
            commit = Commit(view=view, seq=seq, content_digest=digest)
            self._engine.multicast(commit)
            self.on_commit(self._engine.replica_id, commit)

    def on_commit(self, src: str, message: Commit) -> None:
        key = (message.view, message.seq, message.content_digest)
        votes = self._commit_votes.setdefault(key, set())
        votes.add(src)
        self._maybe_committed(message.view, message.seq, message.content_digest)

    def _maybe_committed(self, view: int, seq: int, digest: bytes) -> None:
        if view < self._engine.view:
            # Same abandon rule as in _maybe_prepared: no old-view
            # agreement may conclude once we operate in a later view.
            return
        if seq <= self.last_executed:
            return
        if seq in self.committed or seq in self.executed_batches:
            return
        stored = self.pre_prepares.get(seq)
        if stored is None or stored[0] != view or stored[2] != digest:
            return
        votes = self._commit_votes.get((view, seq, digest), set())
        if len(votes) < self._engine.config.quorum:
            return
        self.committed[seq] = stored[1]
        self._m_committed.inc()
        self._engine.trace("prime.committed", seq=seq, view=view)
        self.try_execute()

    # -- prepared certificates (for view changes) ---------------------------------

    def prepared_certificates(self, above_seq: int):
        """Yield (view, seq, cutoffs) for prepared batches above ``above_seq``."""
        for view, seq in sorted(self._prepared):
            if seq <= above_seq:
                continue
            stored = self.pre_prepares.get(seq)
            if stored is not None and stored[0] == view:
                yield (view, seq, stored[1])
        # Committed batches count as prepared too.
        for seq, cutoffs in sorted(self.committed.items()):
            if seq > above_seq:
                stored = self.pre_prepares.get(seq)
                view = stored[0] if stored else 0
                yield (view, seq, cutoffs)

    # -- execution -------------------------------------------------------------------

    def execution_gap(self) -> bool:
        """True when execution is stuck far behind the committed horizon
        — the signature of a replica that missed traffic and needs a
        state transfer. Two shapes qualify: the next batch never
        committed here while much later ones did (ordering messages
        lost), or execution has waited on the next batch — its content
        (batch fetch) or its po-requests (po-fetch) — for so long that
        peers must have pruned what it asks for. The second shape is
        what un-strands a replica that lost one of the last batches
        before the system went idle: the horizon never gets three ahead,
        and peers that reached checkpoint stability since no longer
        attest the batch. A merely-backlogged replica is NOT gapped:
        fetches repair a backlog in-band within a round trip, and
        escalating it to state transfer would skip response generation
        for the batches jumped over."""
        if not self.committed:
            return False
        next_seq = self.last_executed + 1
        if next_seq not in self.committed and max(self.committed) >= next_seq + 3:
            return True
        return (
            self._blocked_since is not None
            and self._engine.kernel.now - self._blocked_since
            > self._engine.config.blocked_execution_timeout
        )

    def try_execute(self) -> None:
        while True:
            next_seq = self.last_executed + 1
            cutoffs = self.committed.get(next_seq)
            if cutoffs is None:
                if not self.committed:
                    self._blocked_since = None
                elif self._blocked_since is None:
                    self._blocked_since = self._engine.kernel.now
                if self.execution_gap():
                    self._engine.note_lagging(max(self.committed))
                return
            pairs = self._expand(cutoffs)
            missing = [
                pair for pair in pairs if pair not in self._engine.preorder.requests
            ]
            if missing:
                if self._blocked_since is None:
                    self._blocked_since = self._engine.kernel.now
                for pair in missing:
                    self._engine.preorder.fetch_missing(pair)
                if self.execution_gap():
                    # Blocked long enough that peers must have pruned the
                    # po-requests: state transfer can jump past the
                    # unfetchable region, po-fetch cannot.
                    self._engine.note_lagging(max(self.committed))
                return
            self._blocked_since = None
            entries: List[BatchEntry] = []
            for origin, po_seq in pairs:
                self.ordinal += 1
                request = self._engine.preorder.requests[(origin, po_seq)]
                entries.append((self.ordinal, origin, po_seq, request.update))
            for origin, po_seq in pairs:
                if po_seq > self.ordered_through.get(origin, 0):
                    self.ordered_through[origin] = po_seq
            del self.committed[next_seq]
            self.executed_batches[next_seq] = (self.ordinal, pairs)
            self.executed_cutoffs[next_seq] = dict(cutoffs)
            self._fill_votes.pop(next_seq, None)
            self.last_executed = next_seq
            self._m_batches.inc()
            self._m_updates.inc(len(entries))
            self._m_batch_size.observe(len(entries))
            self._engine.trace(
                "prime.executed", seq=next_seq, updates=len(entries), ordinal=self.ordinal
            )
            if entries:
                self._engine.deliver_batch(entries, next_seq)

    def retry_execution(self) -> None:
        self.try_execute()

    def _expand(self, cutoffs: Dict[OriginId, int]) -> List[Tuple[OriginId, int]]:
        """Deterministic batch expansion: new pairs in (origin, seq) order."""
        pairs: List[Tuple[OriginId, int]] = []
        for origin in sorted(cutoffs):
            start = self.ordered_through.get(origin, 0) + 1
            for po_seq in range(start, cutoffs[origin] + 1):
                pairs.append((origin, po_seq))
        return pairs

    # -- state transfer integration -----------------------------------------------------

    def resume_point(self) -> Tuple[int, int, Dict[OriginId, int]]:
        """(batch_seq, ordinal, ordered_through) after the last execution."""
        return (self.last_executed, self.ordinal, dict(self.ordered_through))

    def fast_forward(
        self, batch_seq: int, ordinal: int, ordered_through: Dict[OriginId, int]
    ) -> None:
        """Adopt a verified resume point obtained via state transfer."""
        if batch_seq < self.last_executed:
            return
        self.last_executed = batch_seq
        self.ordinal = ordinal
        self.ordered_through = dict(ordered_through)
        self.propose_seq = max(self.propose_seq, batch_seq)
        for seq in [s for s in self.committed if s <= batch_seq]:
            del self.committed[seq]
        self._blocked_since = None
        self.try_execute()

    def gc_before(self, batch_seq: int) -> None:
        """Forget executed batches (and their po-requests) up to batch_seq."""
        doomed = [s for s in self.executed_batches if s < batch_seq]
        for seq in doomed:
            _ordinal, pairs = self.executed_batches.pop(seq)
            self.executed_cutoffs.pop(seq, None)
            self._engine.preorder.gc_before(pairs)

    # -- committed-batch reconciliation -------------------------------------------------

    def start_reconciliation(self) -> None:
        """Begin periodically re-fetching committed batches we are missing.

        Ordering messages are not retransmitted, so a pre-prepare or
        commit lost to a partition leaves a permanent sequence gap: the
        replica cannot execute past it, cannot serve ordered transfer
        requests, and — once every replica is gapped — the whole system
        deadlocks (state transfer itself needs the order to advance).
        Re-fetching the committed content point-to-point breaks that
        cycle; f+1 matching attestations make the adoption safe.
        """
        self.stop_reconciliation()
        self._fill_timer = self._engine.kernel.call_later(
            self._engine.config.batch_fill_interval, self._fill_tick
        )

    def stop_reconciliation(self) -> None:
        if self._fill_timer is not None:
            self._fill_timer.cancel()
            self._fill_timer = None

    def _fill_tick(self) -> None:
        self._fill_timer = None
        if not self._engine.online:
            return
        missing = self.missing_committed_seqs()
        if missing:
            self._engine.multicast(BatchFetch(seqs=tuple(missing)))
        if self.execution_gap():
            # Nothing event-driven will re-run try_execute when peers
            # have pruned the po-requests we are stuck on; the periodic
            # tick is what escalates that stall to state transfer.
            self._engine.note_lagging(max(self.committed))
        self._fill_timer = self._engine.kernel.call_later(
            self._engine.config.batch_fill_interval, self._fill_tick
        )

    def missing_committed_seqs(self) -> List[int]:
        """Sequences below our committed horizon that we cannot execute."""
        if not self.committed:
            return []
        horizon = max(self.committed)
        limit = self._engine.config.batch_fill_max
        missing = []
        for seq in range(self.last_executed + 1, horizon):
            if seq not in self.committed and seq not in self.executed_batches:
                missing.append(seq)
                if len(missing) >= limit:
                    break
        return missing

    def on_batch_fetch(self, src: str, message: BatchFetch) -> None:
        for seq in message.seqs[: self._engine.config.batch_fill_max]:
            cutoffs = self.committed.get(seq)
            if cutoffs is None:
                cutoffs = self.executed_cutoffs.get(seq)
            if cutoffs is not None:
                self._engine.send(src, BatchFetchReply(seq=seq, cutoffs=dict(cutoffs)))

    def on_batch_fetch_reply(self, src: str, message: BatchFetchReply) -> None:
        seq = message.seq
        if (
            seq <= self.last_executed
            or seq in self.committed
            or seq in self.executed_batches
        ):
            return
        digest = content_digest(seq, dict(message.cutoffs))
        voters = self._fill_votes.setdefault(seq, {}).setdefault(digest, {})
        voters[src] = dict(message.cutoffs)
        if len(voters) < self._engine.config.join_threshold:
            return
        self.committed[seq] = dict(message.cutoffs)
        self._fill_votes.pop(seq, None)
        self._engine.trace("prime.filled", seq=seq)
        self.try_execute()
