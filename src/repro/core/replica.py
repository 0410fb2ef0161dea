"""What a data-center replica runs: ordering glue and durable storage.

The paper's architecture split (Section IV-A): every replica hosts a Prime
engine and participates fully in ordering, but only *executing* replicas
host an application instance, hold client keys, decrypt updates, and
generate responses; *storage* replicas store encrypted updates and
checkpoints, relay checkpoint stability votes, and serve state transfer —
nothing else.

This module is the storage side of that line and the base both roles
share: :class:`ReplicaEnv`, :class:`ReplicaBase` (Prime glue, update log +
store append, update validation, state-transfer application, disk
recovery, the proactive-recovery lifecycle) and :class:`StorageReplica`.
It does not import the application, the client key schedules, or the
introduction / key-renewal / response pipelines, and neither does anything
it imports: tests/test_trust_boundary.py walks the import statements from
here and fails if one of them becomes reachable. Everything that touches
plaintext lives in :mod:`repro.core.executing`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.checkpoint import CheckpointManager
from repro.core.confidentiality import Auditor
from repro.core.messages import (
    BatchProposal,
    BatchRecord,
    BatchShare,
    CheckpointDeltaMsg,
    CheckpointMsg,
    ClientUpdate,
    EncryptedUpdate,
    IntroShare,
    KeyProposal,
    ResponseBatchShare,
    ResponseShare,
    ResumePoint,
    SignedUpdateBatch,
    StateXferResponse,
    StateXferSolicit,
    XferRequest,
)
from repro.core.state_transfer import StateTransferManager
from repro.crypto.keystore import HardwareKeyStore
from repro.crypto.merkle import merkle_root
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.threshold import ThresholdPublicKey
from repro.crypto.verifycache import verify_with
from repro.errors import CryptoError, ProtocolError
from repro.net.codec import encoded_size
from repro.obs.registry import NULL_METRICS
from repro.prime.config import PrimeConfig
from repro.prime.engine import PrimeReplica
from repro.prime.messages import (
    BatchFetch,
    BatchFetchReply,
    Commit,
    Heartbeat,
    NewView,
    OpaqueUpdate,
    PoAck,
    PoAru,
    PoFetch,
    PoFetchReply,
    PoRequest,
    PrePrepare,
    Prepare,
    Suspect,
    VcState,
)
from repro.rt.substrate import Scheduler, Transport
from repro.sim.cpu import Cpu
from repro.store.base import DurableStore, StoreRecovery
from repro.store.memory import MemoryStore

if TYPE_CHECKING:
    # Annotation only: repro.system imports this module while it loads.
    from repro.system.config import SystemConfig


def batch_digest(entries) -> str:
    """Stable short digest of an executed batch's (ordinal, payload) pairs.

    Used by the ordering-safety invariant: two correct replicas executing
    the same batch sequence must produce identical digests.
    """
    hasher = hashlib.sha256()
    for ordinal, _origin, _po_seq, update in entries:
        hasher.update(str(ordinal).encode("ascii"))
        hasher.update(update.digest)
    return hasher.hexdigest()[:16]


_PRIME_TYPES = (
    PoRequest,
    PoAck,
    PoAru,
    PoFetch,
    PoFetchReply,
    BatchFetch,
    BatchFetchReply,
    PrePrepare,
    Prepare,
    Commit,
    Heartbeat,
    Suspect,
    VcState,
    NewView,
)

#: Messages only the executing role serves, and the suffix of the
#: ``replica.unexpected-*`` event a replica without that role traces when
#: one arrives (WatchLab's share-flood detector counts those).
_EXECUTING_ONLY = {
    ClientUpdate: "client-update",
    IntroShare: "intro-share",
    BatchProposal: "batch-proposal",
    BatchShare: "batch-share",
    ResponseShare: "response-share",
    ResponseBatchShare: "response-batch-share",
}

#: Ordered payloads every replica logs and stores; only executing
#: replicas look inside them.
_STORED_TYPES = (EncryptedUpdate, ClientUpdate, KeyProposal, SignedUpdateBatch)

#: What decrypting, parsing or applying a CRC-valid stored blob can raise
#: (bit rot below CRC collision odds, a hostile rewrite): the
#: ``CryptoError`` family from decryption, and what JSON decoding,
#: ``apply_delta`` and state installation raise on a malformed document.
_RESTORE_ERRORS = (CryptoError, ValueError, KeyError, TypeError)

#: Minimum spacing between state transfers a lagging replica initiates.
LAGGING_DEBOUNCE = 1.0


@dataclass
class ReplicaEnv:
    """Shared deployment context handed to every replica.

    Built once per process by :func:`repro.rt.bootstrap.build_env` — the
    deployment's one :class:`~repro.system.config.SystemConfig` by
    reference, the roles and public keys derived from it, and the
    substrate handles; replicas treat it as read-only. It carries public
    keys only: symmetric client keys and threshold shares are constructor
    arguments of the executing role.
    """

    config: SystemConfig
    kernel: Scheduler
    network: Transport
    prime_config: PrimeConfig
    all_replicas: Tuple[str, ...]
    on_premises: Tuple[str, ...]
    executing: Tuple[str, ...]
    intro_public: Optional[ThresholdPublicKey]
    response_public: ThresholdPublicKey
    client_registry: Dict[str, RsaPublicKey]
    proxy_of_client: Dict[str, str]
    tracer: Optional[object] = None
    auditor: Optional[Auditor] = None
    rng: Optional[object] = None
    metrics: Optional[object] = None
    # Durable-store seam: host -> DurableStore. None means the volatile
    # MemoryStore (the deterministic sim's default; traces byte-identical).
    store_factory: Optional[Callable[[str], DurableStore]] = None
    # Shared signature-verification memo (repro.crypto.verifycache). None
    # verifies directly; simulated crypto costs are charged either way.
    verify_cache: Optional[object] = None
    # Optional repro.crypto.pool.CryptoPool: threshold sign/combine are
    # evaluated in worker processes when set (live runtime), in-process
    # when None (the sim default; results are bit-identical either way).
    crypto_pool: Optional[object] = None


class ReplicaBase:
    """Shared machinery: engine lifecycle, dispatch, logs, recovery."""

    hosts_application = False

    def __init__(self, env: ReplicaEnv, host: str, keystore: HardwareKeyStore):
        self.env = env
        self.host = host
        self.keystore = keystore
        self.kernel = env.kernel
        self.costs = env.config.costs
        self.confidential = env.config.confidential
        self.metrics = env.metrics if env.metrics is not None else NULL_METRICS
        self.online = False
        self.incarnation = 0
        self.cpu = Cpu(env.kernel)
        self.store: DurableStore = (
            env.store_factory(host)
            if env.store_factory is not None
            else MemoryStore(metrics=self.metrics, host=host)
        )
        self._last_lagging_xfer = -1e9
        self._compaction_scheduled = False
        # Hook for the Byzantine adversary (repro.system.adversary): maps
        # (dst, message) -> message-or-None on everything this host sends.
        self.outbound_filter = None
        self._new_session()
        env.network.register(host, self.on_message)

    def _new_session(self) -> None:
        """(Re)build everything a proactive-recovery wipe destroys: the
        logs, the managers, the engine, and the message type -> handler
        table bound to them. The executing role extends both."""
        config = self.env.config
        self.update_log: Dict[int, BatchRecord] = {}
        self.checkpoints = CheckpointManager(
            self, config.checkpoint_interval, config.checkpoint_delta_interval
        )
        self.xfer = StateTransferManager(self)
        self.engine = self._make_engine()
        self._handlers: Dict[type, Callable[[str, object], None]] = {
            **dict.fromkeys(_PRIME_TYPES, self.engine.handle),
            CheckpointMsg: self.checkpoints.on_checkpoint,
            CheckpointDeltaMsg: self.checkpoints.on_checkpoint,
            StateXferSolicit: self.xfer.on_solicit,
            StateXferResponse: self.xfer.on_response,
        }

    # -- properties ------------------------------------------------------------

    @property
    def f(self) -> int:
        return self.env.prime_config.f

    @property
    def quorum(self) -> int:
        return self.env.prime_config.quorum

    def all_peers(self) -> List[str]:
        return [r for r in self.env.all_replicas if r != self.host]

    def on_premises_peers(self) -> List[str]:
        return [r for r in self.env.on_premises if r != self.host]

    def executing_peers(self) -> List[str]:
        return [r for r in self.env.executing if r != self.host]

    # -- engine lifecycle ----------------------------------------------------------

    def _make_engine(self) -> PrimeReplica:
        return PrimeReplica(
            kernel=self.kernel,
            config=self.env.prime_config,
            replica_id=self.host,
            send=self.network_send,
            multicast=self._multicast_replicas,
            deliver=self._deliver,
            validate=self._validate,
            on_lagging=self._on_lagging,
            costs=self.costs,
            tracer=self.env.tracer,
            incarnation=self.incarnation,
            metrics=self.env.metrics,
        )

    def start(self) -> None:
        """Bring the replica online at deployment start."""
        self.online = True
        self.engine.start()
        self._schedule_compaction()

    # -- background log compaction (CompactLab) -----------------------------------

    def _schedule_compaction(self) -> None:
        """Arm the periodic compaction tick (sim kernel or live scheduler —
        both provide ``call_later``). Disabled (interval 0) by default so
        existing sim traces stay byte-identical; the tick itself is pure
        disk work with zero simulated cost, so enabling it never perturbs
        protocol timing either."""
        interval = self.env.config.store_compaction_interval
        if interval > 0 and not self._compaction_scheduled:
            self._compaction_scheduled = True
            self.kernel.call_later(interval, self._compaction_tick)

    def _compaction_tick(self) -> None:
        interval = self.env.config.store_compaction_interval
        if interval <= 0:
            self._compaction_scheduled = False
            return
        if self.online:
            # Offline = the modeled process is dead; its disk does not
            # compact itself. The timer keeps ticking so compaction
            # resumes with recovery.
            self.store.compact(self.env.config.store_compaction_budget)
        self.kernel.call_later(interval, self._compaction_tick)

    # -- networking ---------------------------------------------------------------------

    def network_send(self, dst: str, message: object) -> None:
        if self.outbound_filter is not None:
            message = self.outbound_filter(dst, message)
            if message is None:
                return
        self.env.network.send(self.host, dst, message)

    def inject(self, payload) -> None:
        """Hand ``payload`` to Prime for ordering, sized as its encoding."""
        self.engine.inject(
            OpaqueUpdate(
                digest=payload.digest(), payload=payload, size=encoded_size(payload)
            )
        )

    def _multicast_replicas(self, message: object) -> None:
        for dst in self.env.all_replicas:
            if dst != self.host:
                self.network_send(dst, message)

    def on_message(self, src: str, message: object) -> None:
        """Network entry point: queue the message behind the host CPU.

        Every replica-to-replica message costs CPU (deserialization plus
        Prime's per-message authentication check); the FIFO CPU model is
        what makes message-volume growth show up as latency.
        """
        self.cpu.run(self.costs.message_processing, self._process_message, src, message)

    def _process_message(self, src: str, message: object) -> None:
        if not self.online:
            return
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(src, message)
        elif type(message) in _EXECUTING_ONLY:
            self.trace(f"replica.unexpected-{_EXECUTING_ONLY[type(message)]}", src=src)
        else:
            raise ProtocolError(
                f"{self.host}: unhandled message type {type(message).__name__}"
            )

    # -- scheduling helper ------------------------------------------------------------------

    def after(self, cost: float, fn: Callable, *args) -> None:
        """Run ``fn`` after ``cost`` seconds of this host's CPU time."""
        if cost > 0:
            self.cpu.run(cost, fn, *args)
        else:
            fn(*args)

    def trace(self, category: str, **detail) -> None:
        if self.env.tracer is not None:
            self.env.tracer.record(category, self.host, **detail)

    def observe_plaintext(self, label: str, channel: str = "local") -> None:
        if self.env.auditor is not None:
            self.env.auditor.observe(self.host, label, channel)

    def draw_random_bytes(self, n: int) -> bytes:
        if self.env.rng is None:
            raise ProtocolError("no RNG registry configured")
        return self.env.rng.randbytes(f"replica.{self.host}.{self.incarnation}", n)

    # -- ordered batch processing -----------------------------------------------------------

    def _deliver(self, entries, batch_seq: int) -> None:
        for _ordinal, _origin, _po_seq, update in entries:
            self.apply_entry(update.payload)
        batch_seq_r, ordinal_r, ordered_through = self.engine.resume_point()
        record = BatchRecord(
            batch_seq=batch_seq,
            resume=ResumePoint.from_engine(batch_seq_r, ordinal_r, ordered_through),
            entries=tuple((ordinal, update.payload) for ordinal, _o, _p, update in entries),
        )
        self.update_log[batch_seq] = record
        self.store.append(record)
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            # Ordering-safety tap (FaultLab): every replica attests what it
            # executed at this sequence; any two hosts disagreeing on the
            # digest of the same batch_seq is a safety violation.
            tracer.record(
                "order.batch",
                self.host,
                batch_seq=batch_seq,
                digest=batch_digest(entries),
            )
        self.checkpoints.maybe_generate(record.resume.ordinal, record.resume)

    def apply_entry(self, payload: object, replay: bool = False) -> None:
        """One ordered payload, live through Prime or — ``replay`` — from a
        record that state transfer or disk recovery brought back. Storing
        is :meth:`_deliver`'s and :meth:`_replay`'s job, so all that is
        left for a storage replica is serving ordered transfer requests;
        the executing role adds execution."""
        if isinstance(payload, XferRequest):
            if not replay:
                self.xfer.on_ordered_request(payload)
        elif not isinstance(payload, _STORED_TYPES):
            raise ProtocolError(
                f"{self.host}: unknown ordered payload {type(payload).__name__}"
            )

    # -- update validation (Prime callback) ----------------------------------------------------

    def _validate(self, update: OpaqueUpdate) -> bool:
        payload = update.payload
        if isinstance(payload, (EncryptedUpdate, SignedUpdateBatch)):
            if self.env.intro_public is None:
                return False
            if isinstance(payload, SignedUpdateBatch) and (
                not payload.items
                # The root must re-derive from the member digests: the
                # signature then covers every item, and no item can be
                # swapped without invalidating it.
                or merkle_root([item.digest() for item in payload.items]) != payload.root
            ):
                return False
            return verify_with(
                self.env.verify_cache,
                self.env.intro_public,
                payload.signing_bytes(),
                payload.threshold_sig,
            )
        if isinstance(payload, ClientUpdate):
            if self.confidential:
                # Plaintext client updates must never be ordered in
                # Confidential Spire.
                return False
            public = self.env.client_registry.get(payload.client_id)
            return public is not None and verify_with(
                self.env.verify_cache,
                public,
                payload.signing_bytes(),
                payload.signature,
            )
        if isinstance(payload, KeyProposal):
            return payload.proposer in self.env.on_premises
        if isinstance(payload, XferRequest):
            return True
        return False

    # -- lagging detection / state transfer ---------------------------------------------------------

    def _on_lagging(self, target_seq: int) -> None:
        now = self.kernel.now
        if now - self._last_lagging_xfer < LAGGING_DEBOUNCE:
            return
        if self.xfer.in_progress:
            return
        self._last_lagging_xfer = now
        self.trace("replica.lagging", target=target_seq)
        self.xfer.initiate(reason=f"lagging@{target_seq}")

    def executed_ordinal(self) -> int:
        return self.engine.order.ordinal

    def update_log_after(self, batch_seq: int) -> List[BatchRecord]:
        return [
            self.update_log[seq]
            for seq in sorted(self.update_log)
            if seq > batch_seq
        ]

    def prune_update_log(self, before_seq: int) -> None:
        for seq in [s for s in self.update_log if s < before_seq]:
            del self.update_log[seq]

    # -- catching up: state transfer and disk recovery ---------------------------------------------

    def _replay(
        self,
        records: Iterable[BatchRecord],
        resume: Optional[ResumePoint],
        view: int,
        persist: bool,
    ) -> Optional[ResumePoint]:
        """Log and re-apply ``records`` on top of the restored chain tip
        ``resume``, then fast-forward the engine to where they end.
        ``persist`` appends them to the store (records that came over the
        network; recovered ones are already on disk)."""
        for record in records:
            self.update_log[record.batch_seq] = record
            if persist:
                self.store.append(record)
            for _ordinal, payload in record.entries:
                self.apply_entry(payload, replay=True)
            resume = record.resume
        if resume is not None:
            self.engine.fast_forward(
                resume.batch_seq,
                resume.ordinal,
                resume.ordered_through_dict(),
                view=view,
            )
        return resume

    def apply_state_transfer(
        self,
        checkpoint: Optional[CheckpointMsg],
        batches: List[BatchRecord],
        view: int,
        deltas: Tuple[CheckpointDeltaMsg, ...] = (),
    ) -> None:
        if deltas and checkpoint is None and self.checkpoints.stable is None:
            # A chain without its anchor is unusable; the requester-side
            # agreement should never let this through, but never crash on
            # a malformed combination — just ignore the chain.
            deltas = ()
        tip = None
        if checkpoint is not None or deltas:
            # Capture the local anchor *before* adopting: when responders
            # omitted the full snapshot (our have_ordinal proved we hold
            # it), the chain applies on top of our own stable chain.
            anchor, chain = checkpoint, tuple(deltas)
            if checkpoint is None:
                anchor = self.checkpoints.stable
                chain = tuple(self.checkpoints.stable_deltas) + chain
            self.checkpoints.adopt_chain(checkpoint, deltas)
            if self.hosts_application:
                self.install_chain(anchor, chain)
            tip = (deltas[-1] if deltas else checkpoint).resume
        if self._replay(batches, tip, view, persist=True) is None and view > self.engine.view:
            self.engine.fast_forward(0, 0, {}, view=view)
        self.checkpoints.retry_stability()
        self.on_state_transfer_done()

    def on_state_transfer_done(self) -> None:
        order = self.engine.order
        if order.committed and (order.last_executed + 1) not in order.committed:
            # Batches committed while the transfer was in flight and we
            # still miss their predecessors: run one more round (each
            # round closes the window to the traffic of the previous one).
            self.trace("replica.post-transfer-gap", ordinal=self.executed_ordinal())
            self.xfer.initiate(reason="post-transfer-gap")
            return
        self.trace("replica.caught-up", ordinal=self.executed_ordinal())

    # -- proactive recovery -------------------------------------------------------------------------------------

    def go_down(self) -> None:
        """Crash / begin proactive recovery: drop off the network."""
        self.online = False
        self.engine.stop()
        self.env.network.set_host_down(self.host, True)
        self.trace("replica.down")

    def recover(self) -> None:
        """Finish proactive recovery: wipe session state, rejoin, catch up.

        Hardware-protected keys survive (the keystore's contract); all
        session state — engine, logs, checkpoints, application state — is
        rebuilt from scratch and then recovered via state transfer.
        """
        self.keystore.wipe()
        self.incarnation += 1
        self._new_session()
        self.env.network.set_host_down(self.host, False)
        self.online = True
        self.engine.start()
        self.trace("replica.recovered", incarnation=self.incarnation)
        recovered = self.recover_from_store()
        if recovered.empty:
            self.xfer.initiate(reason="proactive-recovery")
        else:
            self.xfer.initiate(
                reason="proactive-recovery",
                have_seq=recovered.batch_seq,
                have_ordinal=recovered.ordinal,
            )

    def recover_from_store(self) -> StoreRecovery:
        """Replay whatever the durable store preserved across the crash.

        Restores the newest verified checkpoint, replays the *contiguous*
        run of logged batches above it (gaps and anything beyond them are
        left for network state transfer), and fast-forwards the engine to
        the resulting resume point. Damage is detected, traced, and
        degraded around — never served: a corrupt checkpoint or segment
        simply shrinks what recovers locally.

        With the sim's :class:`MemoryStore` (``load()`` always empty) this
        is a no-op, preserving trace byte-identity for existing seeds.
        """
        recovery = StoreRecovery()
        load = self.store.load()

        def corrupted(**detail) -> None:
            recovery.corruption_detected = True
            self.metrics.counter("store.corruption_detected", host=self.host).inc()
            self.trace("store.corrupted", **detail)

        def restore(chain: Tuple[CheckpointDeltaMsg, ...], stage: str) -> bool:
            try:
                if self.hosts_application:
                    self.install_chain(load.checkpoint, chain)
            except _RESTORE_ERRORS:
                # The files verified (magic + CRC) but their content does
                # not decrypt, parse or apply.
                corrupted(stage=stage)
                return False
            self.checkpoints.adopt_chain(load.checkpoint, chain)
            return True

        if load.damaged:
            corrupted(
                segments=load.corrupt_segments,
                checkpoints=load.corrupt_checkpoints,
                deltas=load.corrupt_deltas,
            )
        if load.truncated_tail:
            self.trace("store.truncated")
        if load.empty:
            return recovery
        # Newest usable state first: the full snapshot plus its delta
        # chain, else the snapshot alone (plus the log tail), else the
        # network entirely.
        chain = tuple(load.chain_deltas())
        tip = None
        if chain and restore(chain, "delta-restore"):
            tip = chain[-1]
            recovery.bytes_replayed += load.checkpoint_bytes + load.delta_bytes
        elif load.checkpoint is not None and restore((), "checkpoint-restore"):
            tip = load.checkpoint
            recovery.bytes_replayed += load.checkpoint_bytes
        next_seq = 1
        if tip is not None:
            recovery.ordinal = tip.ordinal
            next_seq = tip.resume.batch_seq + 1
        contiguous = []
        for record in load.records:
            if record.batch_seq < next_seq:
                continue
            if record.batch_seq > next_seq:
                break  # a gap: the rest must come over the network
            contiguous.append(record)
            recovery.bytes_replayed += load.record_bytes.get(record.batch_seq, 0)
            next_seq += 1
        recovery.records = len(contiguous)
        resume = self._replay(
            contiguous,
            tip.resume if tip is not None else None,
            self.engine.view,
            persist=False,
        )
        if resume is not None:
            recovery.batch_seq = resume.batch_seq
        if not recovery.empty:
            self.metrics.counter("store.recovered_bytes", host=self.host).inc(
                recovery.bytes_replayed
            )
            self.metrics.counter("store.recovered_records", host=self.host).inc(
                recovery.records
            )
            self.trace(
                "store.recovered",
                ordinal=recovery.ordinal,
                batch_seq=recovery.batch_seq,
                records=recovery.records,
                bytes=recovery.bytes_replayed,
            )
        return recovery


class StorageReplica(ReplicaBase):
    """A data-center replica: orders and stores, never executes.

    It is handed no application, no client keys and no threshold shares,
    and this module cannot import the code that would use them (see the
    module docstring); the auditor checks the same thing dynamically.
    """

    def stored_ciphertext_count(self) -> int:
        """How many encrypted updates this replica currently stores."""
        count = 0
        for record in self.update_log.values():
            for _ordinal, payload in record.entries:
                if isinstance(payload, EncryptedUpdate):
                    count += 1
                elif isinstance(payload, SignedUpdateBatch):
                    count += len(payload.items)
        return count
