"""Encrypted checkpoints with *correct* and *stable* levels (Section V-C).

Every ``C`` ordinals, application-hosting replicas snapshot their state,
encrypt it under the hardware-protected shared key (Confidential Spire) or
leave it plaintext (Spire baseline — the auditor then observes the leak to
data centers), and multicast the checkpoint to every replica.

Vote levels, per the paper:

- *correct* — f+1 identical blobs from distinct signers: at least one
  correct replica vouches that this is the state at that ordinal. A
  data-center replica that obtains a correct checkpoint re-multicasts it
  under its own signature, so stability can be reached even though data
  centers never generate checkpoints themselves.
- *stable* — 2f+k+1 identical blobs: even with f liars and k newly
  unavailable replicas, f+1 correct holders remain, so everything older
  can be garbage collected (update log, engine history, older
  checkpoints).

CompactLab deltas: with ``delta_interval = N > 1``, only every N-th
checkpoint is a full snapshot; the ones between carry a deterministic
state *diff* against the previous chain node (:mod:`repro.core.statedelta`),
encrypted exactly like full blobs. Deltas vote and stabilise through the
same machinery (digests bind the chain coordinates), a stable delta
advances GC just like a stable full, and the retained chain is
``stable`` (full) + ``stable_deltas`` (contiguous). A replica that lacks
the previous state document — it just recovered or adopted state over the
network — skips delta generation until the next full boundary; voting
does not depend on being able to generate.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

from repro.core.messages import CheckpointDeltaMsg, CheckpointMsg, ResumePoint
from repro.core.statedelta import diff_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.replica import ReplicaBase

VoteKey = Tuple[int, bytes]  # (ordinal, blob digest)

ChainMsg = Union[CheckpointMsg, CheckpointDeltaMsg]


class CheckpointManager:
    """Checkpoint generation, voting, relaying, and garbage collection."""

    def __init__(self, replica: "ReplicaBase", interval: int, delta_interval: int = 0):
        self._replica = replica
        metrics = replica.metrics
        self._m_generated = metrics.counter("checkpoint.generated")
        self._m_correct = metrics.counter("checkpoint.correct")
        self._m_stable = metrics.counter("checkpoint.stable")
        self._g_stable = metrics.gauge("checkpoint.stable_ordinal", host=replica.host)
        self.interval = interval
        #: Full snapshot every this many checkpoints, deltas between
        #: (0/1 = every checkpoint is full, the legacy behaviour).
        self.delta_interval = delta_interval
        self._votes: Dict[VoteKey, Set[str]] = {}
        self._messages: Dict[VoteKey, ChainMsg] = {}
        self._relayed: Set[VoteKey] = set()
        self._next_due = interval
        self.correct: Dict[int, ChainMsg] = {}
        self.stable: Optional[CheckpointMsg] = None
        #: The contiguous stable delta chain anchored at ``stable``.
        self.stable_deltas: List[CheckpointDeltaMsg] = []
        self.generated_count = 0
        #: (ordinal, full_ordinal, state document) of the last checkpoint
        #: this replica generated — the base for the next delta.
        self._last_state: Optional[Tuple[int, int, dict]] = None

    # -- chain coordinates -------------------------------------------------------

    def stable_tip_ordinal(self) -> int:
        if self.stable_deltas:
            return self.stable_deltas[-1].ordinal
        return self.stable.ordinal if self.stable is not None else 0

    def stable_tip_resume(self) -> Optional[ResumePoint]:
        if self.stable_deltas:
            return self.stable_deltas[-1].resume
        return self.stable.resume if self.stable is not None else None

    # -- generation (application-hosting replicas) ------------------------------

    def maybe_generate(self, ordinal: int, resume: ResumePoint) -> None:
        """Called after each executed batch; snapshots when due."""
        if ordinal < self._next_due:
            return
        self._next_due = (ordinal // self.interval + 1) * self.interval
        replica = self._replica
        if not replica.hosts_application:
            return
        # Full/delta choice is a pure function of the ordinal, so every
        # correct up-to-date replica makes the same call without
        # coordination; the chain digest binds the coordinates anyway.
        chained = self.delta_interval > 1
        state = replica.state_doc(delta_friendly=chained)
        message: ChainMsg
        if (
            not chained
            or self._last_state is None
            or (ordinal // self.interval) % self.delta_interval == 0
        ):
            full_ordinal = ordinal
            message = CheckpointMsg(
                ordinal=ordinal,
                resume=resume,
                blob=replica.seal(state, "state-snapshot"),
                signer=replica.host,
            )
        else:
            base_ordinal, full_ordinal, base_state = self._last_state
            message = CheckpointDeltaMsg(
                ordinal=ordinal,
                base_ordinal=base_ordinal,
                full_ordinal=full_ordinal,
                resume=resume,
                blob=replica.seal(diff_state(base_state, state), "state-delta"),
                signer=replica.host,
            )
        if chained:
            self._last_state = (ordinal, full_ordinal, state)
        size = len(message.blob.data if hasattr(message.blob, "data") else message.blob)
        cost = replica.costs.snapshot(size) + (
            replica.costs.encrypt_blob(size) if replica.confidential else 0.0
        )
        self.generated_count += 1
        self._m_generated.inc()
        replica.after(cost, self._broadcast, message)

    def _broadcast(self, message: ChainMsg) -> None:
        replica = self._replica
        if not replica.online:
            return
        replica.trace("checkpoint.generated", ordinal=message.ordinal)
        for peer in replica.all_peers():
            replica.network_send(peer, message)
        self.on_checkpoint(replica.host, message)

    # -- voting ---------------------------------------------------------------------

    def on_checkpoint(self, src: str, message: ChainMsg) -> None:
        replica = self._replica
        key = (message.ordinal, message.blob_digest())
        votes = self._votes.setdefault(key, set())
        if src in votes:
            return
        votes.add(src)
        self._messages.setdefault(key, message)
        f_plus_1 = replica.f + 1
        if len(votes) >= f_plus_1 and message.ordinal not in self.correct:
            self.correct[message.ordinal] = self._messages[key]
            self._m_correct.inc()
            replica.trace("checkpoint.correct", ordinal=message.ordinal)
            if not replica.hosts_application and key not in self._relayed:
                # Data-center relay: vouch for the correct checkpoint so it
                # can become stable without on-premises help (Section V-C).
                self._relayed.add(key)
                relayed = dc_replace(message, signer=replica.host)
                for peer in replica.all_peers():
                    replica.network_send(peer, relayed)
                votes.add(replica.host)
        if len(votes) >= replica.quorum:
            self._mark_stable(key)

    def _mark_stable(self, key: VoteKey) -> None:
        message = self._messages[key]
        tip = self.stable_tip_ordinal()
        if message.ordinal <= tip:
            return
        replica = self._replica
        # Never garbage-collect past our own execution point: a lagging
        # replica keeps everything until it has caught up.
        if replica.executed_ordinal() < message.ordinal:
            return
        if isinstance(message, CheckpointDeltaMsg):
            # A delta only stabilises locally when it extends our chain:
            # without the anchor and every link below it, the state at
            # this ordinal is not actually recoverable from what we hold.
            if self.stable is None or message.full_ordinal != self.stable.ordinal:
                return
            if message.base_ordinal != tip:
                return
            self.stable_deltas.append(message)
            self._m_stable.inc()
            self._g_stable.set(message.ordinal)
            replica.trace("checkpoint.stable", ordinal=message.ordinal, delta=1)
            replica.store.save_delta(message)
            self._garbage_collect(message)
        else:
            self.stable = message
            self.stable_deltas = []
            self._m_stable.inc()
            self._g_stable.set(message.ordinal)
            replica.trace("checkpoint.stable", ordinal=message.ordinal)
            replica.store.save_checkpoint(message)
            self._garbage_collect(message)
        if self.delta_interval > 1:
            # Votes for the next link may already hold a quorum (they can
            # arrive out of order); extend the chain while they do.
            self._extend_chain()

    def _extend_chain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            tip = self.stable_tip_ordinal()
            for key, votes in list(self._votes.items()):
                if len(votes) < self._replica.quorum:
                    continue
                candidate = self._messages.get(key)
                if (
                    isinstance(candidate, CheckpointDeltaMsg)
                    and candidate.base_ordinal == tip
                    and candidate.ordinal > tip
                    and self.stable is not None
                    and candidate.full_ordinal == self.stable.ordinal
                    and self._replica.executed_ordinal() >= candidate.ordinal
                ):
                    self._mark_stable_delta_link(candidate)
                    progressed = True
                    break

    def _mark_stable_delta_link(self, message: CheckpointDeltaMsg) -> None:
        replica = self._replica
        self.stable_deltas.append(message)
        self._m_stable.inc()
        self._g_stable.set(message.ordinal)
        replica.trace("checkpoint.stable", ordinal=message.ordinal, delta=1)
        replica.store.save_delta(message)
        self._garbage_collect(message)

    def _garbage_collect(self, stable: ChainMsg) -> None:
        replica = self._replica
        replica.trace("checkpoint.gc", ordinal=stable.ordinal)
        replica.engine.gc_before(stable.resume.batch_seq)
        replica.prune_update_log(stable.resume.batch_seq)
        replica.store.gc(stable.ordinal, stable.resume.batch_seq)
        for ordinal in [o for o in self.correct if o < stable.ordinal]:
            del self.correct[ordinal]
        for key in [k for k in self._votes if k[0] < stable.ordinal]:
            self._votes.pop(key, None)
            self._messages.pop(key, None)
            self._relayed.discard(key)

    # -- state transfer integration ------------------------------------------------------

    def adopt_stable(self, message: CheckpointMsg) -> None:
        """Install a checkpoint validated during state transfer."""
        if self.stable is None or message.ordinal > self.stable.ordinal:
            self.stable = message
            self.stable_deltas = []
            self._replica.trace("checkpoint.adopted", ordinal=message.ordinal)
            self._replica.store.save_checkpoint(message)
        self._next_due = max(
            self._next_due, (message.ordinal // self.interval + 1) * self.interval
        )

    def adopt_chain(
        self, full: Optional[CheckpointMsg], deltas: Tuple[CheckpointDeltaMsg, ...]
    ) -> None:
        """Install a validated checkpoint chain (full snapshot optional —
        state transfer omits it when our own ``stable`` is the anchor)."""
        if full is not None:
            self.adopt_stable(full)
        for delta in deltas:
            tip = self.stable_tip_ordinal()
            if (
                self.stable is not None
                and delta.full_ordinal == self.stable.ordinal
                and delta.base_ordinal == tip
                and delta.ordinal > tip
            ):
                self.stable_deltas.append(delta)
                self._replica.trace(
                    "checkpoint.adopted", ordinal=delta.ordinal, delta=1
                )
                self._replica.store.save_delta(delta)
        tip = self.stable_tip_ordinal()
        self._next_due = max(
            self._next_due, (tip // self.interval + 1) * self.interval
        )

    def retry_stability(self) -> None:
        """Re-check stability after this replica catches up (its earlier
        executed-point guard may have deferred garbage collection)."""
        for key, votes in list(self._votes.items()):
            if len(votes) >= self._replica.quorum:
                self._mark_stable(key)
