"""Leader election and view changes.

Prime's defining feature is that it bounds the damage a malicious-but-
functioning leader can do by monitoring delay; we distill its
suspect-leader machinery into two failure detectors plus a PBFT-style
view-change state transfer:

1. *Leader-alive*: followers expect a pre-prepare or heartbeat from the
   current leader within ``vc_timeout``; silence draws suspicion.
2. *Progress*: if certified updates exist that are not getting globally
   ordered (or committed batches are stuck), the leader is suspected even
   if it keeps chattering — this is what catches a leader that orders
   selectively or whose proposals cannot commit.

Suspicion is a vote for a specific next view. A replica joins a suspicion
once f+1 distinct replicas voted for it (it then contains at least one
correct voter) and the view changes once 2f+k+1 replicas voted. The new
leader collects state reports from a quorum, adopts the highest-view
prepared certificate for every batch above the collective commit point
(quorum intersection guarantees nothing committed is lost), fills true
gaps with empty batches, and resumes proposing.

Replicas also track the highest view attested by each peer; seeing f+1
peers operating at a higher view fast-forwards a lagging replica's view
without waiting for timeouts (this is how a rejoining replica resyncs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.prime.messages import NewView, PreparedCert, Suspect, VcState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.prime.engine import PrimeReplica


class ViewChange:
    """View-change state machine for one replica."""

    def __init__(self, engine: "PrimeReplica"):
        self._engine = engine
        self._m_suspects = engine.metrics.counter("prime.view_change.suspects")
        self._m_adopted = engine.metrics.counter("prime.view_change.adopted")
        self._suspect_votes: Dict[int, Set[str]] = {}
        self._own_suspects: Set[int] = set()
        self._vc_states: Dict[int, Dict[str, VcState]] = {}
        self._peer_views: Dict[str, int] = {}
        self._last_leader_sign = 0.0
        self._last_progress = 0.0
        self._pending_since: Optional[float] = None
        self._monitor_timer = None
        self._new_view_done: Set[int] = set()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._last_leader_sign = self._engine.kernel.now
        self._last_progress = self._engine.kernel.now
        self._arm_monitor()

    def stop(self) -> None:
        if self._monitor_timer is not None:
            self._monitor_timer.cancel()
            self._monitor_timer = None

    def _arm_monitor(self) -> None:
        interval = self._engine.config.vc_timeout / 3.0
        self._monitor_timer = self._engine.kernel.call_later(interval, self._monitor)

    # -- signals from the rest of the engine -------------------------------------

    def note_leader_alive(self) -> None:
        self._last_leader_sign = self._engine.kernel.now

    def note_progress(self) -> None:
        self._last_progress = self._engine.kernel.now
        if not self._work_pending():
            self._pending_since = None

    def note_work_pending(self) -> None:
        if self._pending_since is None:
            self._pending_since = self._engine.kernel.now

    def note_view_evidence(self, src: str, view: int) -> None:
        """Record that ``src`` attests to operating at ``view``."""
        if view > self._peer_views.get(src, -1):
            self._peer_views[src] = view
        if view <= self._engine.view:
            return
        attesting = sorted(self._peer_views.values(), reverse=True)
        threshold = self._engine.config.join_threshold
        if len(attesting) >= threshold and attesting[threshold - 1] > self._engine.view:
            self._adopt_view(attesting[threshold - 1], broadcast_state=True)

    # -- failure detection ----------------------------------------------------------

    def _work_pending(self) -> bool:
        order = self._engine.order
        if order.committed:
            return True
        preorder = self._engine.preorder
        for origin, certified in preorder.aru.items():
            if certified > order.ordered_through.get(origin, 0):
                return True
        return False

    def _monitor(self) -> None:
        self._monitor_timer = None
        if not self._engine.online:
            return
        if self._engine.catching_up or self._engine.order.execution_gap():
            # We are (or are about to be) in state transfer: our stall is
            # our own, not the leader's. Reset the detectors so suspicion
            # resumes cleanly once we are caught up.
            self._last_leader_sign = self._engine.kernel.now
            self._last_progress = self._engine.kernel.now
            self._arm_monitor()
            return
        now = self._engine.kernel.now
        timeout = self._engine.config.vc_timeout
        suspicious = False
        if not self._engine.is_leader():
            if now - self._last_leader_sign > timeout:
                suspicious = True
        if self._work_pending():
            self.note_work_pending()
            baseline = max(self._last_progress, self._pending_since or 0.0)
            if now - baseline > timeout:
                suspicious = True
        if suspicious:
            self._suspect(self._engine.view + 1)
        self._arm_monitor()

    def _suspect(self, target_view: int) -> None:
        self._own_suspects.add(target_view)
        message = Suspect(target_view=target_view)
        self._engine.multicast(message)
        self.on_suspect(self._engine.replica_id, message)
        self._m_suspects.inc()
        self._engine.trace("prime.suspect", target_view=target_view)
        # Postpone re-suspicion so votes can accumulate.
        self._last_leader_sign = self._engine.kernel.now
        self._last_progress = self._engine.kernel.now

    # -- message handlers ----------------------------------------------------------------

    def on_suspect(self, src: str, message: Suspect) -> None:
        # Suspect(t) says its sender operates at t-1: it has left every
        # view below that as well, so it also votes for each lower view
        # change still pending here. That is what lets a replica that
        # adopted a view alone (its own vote completed a quorum nobody
        # else saw, e.g. while its output was muted) pull the others
        # after it: its next suspicion supplies the vote they missed.
        pending = [t for t in self._suspect_votes if t < message.target_view]
        for target in sorted(pending) + [message.target_view]:
            self._count_vote(src, target)

    def _count_vote(self, src: str, target: int) -> None:
        if target <= self._engine.view:
            return
        votes = self._suspect_votes.setdefault(target, set())
        votes.add(src)
        config = self._engine.config
        if (
            len(votes) >= config.join_threshold
            and target not in self._own_suspects
            and self._corroborates_suspicion()
        ):
            # Join only when our own detectors agree something is off:
            # f+1 votes prove one *correct* replica complained, but that
            # replica may merely have been partitioned and is now venting
            # stale suspicion — a healthy replica with a live leader must
            # not amplify it into a spurious view change.
            self._own_suspects.add(target)
            join = Suspect(target_view=target)
            self._engine.multicast(join)
            votes.add(self._engine.replica_id)
        if len(votes) >= config.quorum:
            self._adopt_view(target, broadcast_state=True)

    def _corroborates_suspicion(self) -> bool:
        """Half-timeout version of the failure detectors: are we at least
        mildly unhappy with the current leader ourselves?"""
        engine = self._engine
        if engine.catching_up or engine.order.execution_gap():
            return False
        now = engine.kernel.now
        half = engine.config.vc_timeout / 2.0
        if not engine.is_leader() and now - self._last_leader_sign > half:
            return True
        if self._work_pending():
            baseline = max(self._last_progress, self._pending_since or 0.0)
            if now - baseline > half:
                return True
        return False

    def _adopt_view(self, view: int, broadcast_state: bool) -> None:
        engine = self._engine
        if view <= engine.view:
            return
        engine.view = view
        self._m_adopted.inc()
        engine.trace("prime.view", view=view, leader=engine.config.leader_of(view))
        self._last_leader_sign = engine.kernel.now
        self._last_progress = engine.kernel.now
        for stale in [v for v in self._suspect_votes if v <= view]:
            del self._suspect_votes[stale]
        engine.order.stop_leader_duty()
        engine.order.replay_future_pre_prepares(view)
        if broadcast_state:
            self._send_vc_state(view)

    def _send_vc_state(self, view: int) -> None:
        engine = self._engine
        order = engine.order
        last_committed = order.last_committed_contiguous()
        prepared = tuple(
            PreparedCert(view=v, seq=s, cutoffs=dict(c))
            for v, s, c in order.prepared_certificates(last_committed)
        )
        state = VcState(view=view, last_committed=last_committed, prepared=prepared)
        leader = engine.config.leader_of(view)
        if leader == engine.replica_id:
            self.on_vc_state(engine.replica_id, state)
        else:
            engine.send(leader, state)

    def on_vc_state(self, src: str, message: VcState) -> None:
        engine = self._engine
        if message.view != engine.view:
            if message.view > engine.view:
                # Stash for when we adopt that view.
                self._vc_states.setdefault(message.view, {})[src] = message
            return
        if engine.config.leader_of(message.view) != engine.replica_id:
            return
        states = self._vc_states.setdefault(message.view, {})
        states[src] = message
        if message.view in self._new_view_done:
            return
        if len(states) < engine.config.quorum:
            return
        self._new_view_done.add(message.view)
        self._install_new_view(message.view, states)

    def _install_new_view(self, view: int, states: Dict[str, VcState]) -> None:
        engine = self._engine
        start = max(state.last_committed for state in states.values())
        best: Dict[int, PreparedCert] = {}
        for state in states.values():
            for cert in state.prepared:
                if cert.seq <= start:
                    continue
                current = best.get(cert.seq)
                if current is None or cert.view > current.view:
                    best[cert.seq] = cert
        top = max(best) if best else start
        adopted: List[PreparedCert] = []
        for seq in range(start + 1, top + 1):
            cert = best.get(seq)
            if cert is None:
                # True gap: no correct replica committed it, fill with an
                # empty batch (cutoffs below ordered state order nothing).
                cert = PreparedCert(view=0, seq=seq, cutoffs={})
            adopted.append(PreparedCert(view=view, seq=seq, cutoffs=dict(cert.cutoffs)))
        new_view = NewView(view=view, start_seq=start, adopted=tuple(adopted))
        engine.multicast(new_view)
        self.on_new_view(engine.replica_id, new_view)

    def on_new_view(self, src: str, message: NewView) -> None:
        engine = self._engine
        if message.view > engine.view:
            self._adopt_view(message.view, broadcast_state=False)
        if message.view != engine.view:
            return
        if src != engine.config.leader_of(message.view):
            return
        self.note_leader_alive()
        order = engine.order
        if message.start_seq > order.last_executed and (
            message.start_seq not in order.committed
        ):
            engine.note_lagging(message.start_seq)
        for cert in message.adopted:
            order.on_pre_prepare(
                src,
                _as_pre_prepare(message.view, cert),
            )
        order.propose_seq = max(
            order.propose_seq,
            message.start_seq,
            max((c.seq for c in message.adopted), default=0),
        )
        if engine.is_leader():
            order.start_leader_duty()


def _as_pre_prepare(view: int, cert: PreparedCert):
    from repro.prime.messages import PrePrepare

    return PrePrepare(view=view, seq=cert.seq, cutoffs=dict(cert.cutoffs))
