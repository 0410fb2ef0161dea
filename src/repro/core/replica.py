"""Replica hosts: executing (on-premises) and storage (data-center) roles.

This module is the runtime embodiment of the paper's architecture split
(Section IV-A): every replica hosts a Prime engine and participates fully
in ordering, but only *executing* replicas host an application instance,
hold client keys, decrypt updates, and generate responses; *storage*
replicas store encrypted updates and checkpoints, relay checkpoint
stability votes, and serve state transfer — nothing else.

The Spire 1.2 baseline is expressed with the same classes: every replica
(including those in data centers) is an :class:`ExecutingReplica` with
``confidential=False``, which skips encryption and threshold introduction;
the confidentiality auditor then records the resulting plaintext exposure
at data-center hosts, quantifying the gap Confidential Spire closes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.core.app import Application
from repro.core.checkpoint import CheckpointManager
from repro.core.confidentiality import Auditor, Sensitive
from repro.core.encryption import KeyManager
from repro.core.intro import IntroductionManager
from repro.core.key_renewal import KeyRenewalManager
from repro.core.messages import (
    BatchProposal,
    BatchRecord,
    BatchShare,
    CertifiedResponse,
    CheckpointDeltaMsg,
    CheckpointMsg,
    ClientResponse,
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
    client_alias,
    response_batch_signing_bytes,
    unpack_update,
)
from repro.core.state_transfer import StateTransferManager
from repro.core.statedelta import apply_delta, diff_state
from repro.crypto.keystore import HardwareKeyStore
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.symmetric import SymmetricKeyPair
from repro.crypto.merkle import merkle_proof, merkle_root
from repro.crypto.threshold import (
    PartialSignature,
    ThresholdKeyShare,
    ThresholdPublicKey,
    combine_via,
    combine_with_retry,
    sign_partial_via,
)
from repro.crypto.verifycache import verify_with
from repro.errors import ProtocolError, SignatureError
from repro.obs.registry import NULL_METRICS
from repro.rt.substrate import Scheduler, Transport
from repro.store.base import DurableStore, StoreRecovery
from repro.store.memory import MemoryStore
from repro.prime.config import PrimeConfig
from repro.sim.cpu import Cpu
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

if TYPE_CHECKING:
    # Annotation only: repro.system imports this module while it loads.
    from repro.system.config import SystemConfig


def batch_digest(entries) -> str:
    """Stable short digest of an executed batch's (ordinal, payload) pairs.

    Used by the ordering-safety invariant: two correct replicas executing
    the same batch sequence must produce identical digests.
    """
    import hashlib

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


#: Minimum spacing between state transfers a lagging replica initiates.
LAGGING_DEBOUNCE = 1.0


@dataclass
class ReplicaEnv:
    """Shared deployment context handed to every replica.

    Built once per process by :func:`repro.rt.bootstrap.build_env` — the
    deployment's one :class:`~repro.system.config.SystemConfig` by
    reference, the roles and public keys derived from it, and the
    substrate handles; replicas treat it as read-only.
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
    alias_to_client: Dict[str, str]
    proxy_of_client: Dict[str, str]
    initial_client_keys: Dict[str, SymmetricKeyPair]
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


class ClientProgress:
    """Execution-dedup record for one client: which sequences ran.

    The global total order may interleave one client's updates out of
    sequence-number order (two introducers, independent pre-order
    streams); execution follows the total order, so dedup must handle
    holes. Stored compactly as a contiguous watermark plus the sparse set
    above it.
    """

    __slots__ = ("contiguous", "extras")

    def __init__(self, contiguous: int = 0, extras: Optional[Set[int]] = None):
        self.contiguous = contiguous
        self.extras: Set[int] = set(extras or ())
        self._compact()

    def is_executed(self, seq: int) -> bool:
        return seq <= self.contiguous or seq in self.extras

    def mark(self, seq: int) -> None:
        if self.is_executed(seq):
            return
        self.extras.add(seq)
        self._compact()

    def _compact(self) -> None:
        while (self.contiguous + 1) in self.extras:
            self.contiguous += 1
            self.extras.discard(self.contiguous)

    @property
    def high_watermark(self) -> int:
        return max(self.extras) if self.extras else self.contiguous

    def to_state(self):
        return [self.contiguous, sorted(self.extras)]

    @staticmethod
    def from_state(state) -> "ClientProgress":
        contiguous, extras = state
        return ClientProgress(int(contiguous), {int(s) for s in extras})


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
        self.update_log: Dict[int, BatchRecord] = {}
        self.checkpoints = CheckpointManager(
            self, env.config.checkpoint_interval, env.config.checkpoint_delta_interval
        )
        self.xfer = StateTransferManager(self)
        self.engine = self._make_engine()
        self._last_lagging_xfer = -1e9
        self._compaction_scheduled = False
        # Hook for the Byzantine adversary (repro.system.adversary): maps
        # (dst, message) -> message-or-None on everything this host sends.
        self.outbound_filter = None
        env.network.register(host, self.on_message)

    # -- properties ------------------------------------------------------------

    @property
    def f(self) -> int:
        return self.env.prime_config.f

    @property
    def quorum(self) -> int:
        return self.env.prime_config.quorum

    def all_peers(self) -> List[str]:
        return [r for r in self.env.all_replicas if r != self.host]

    def on_premises_replicas(self) -> List[str]:
        return list(self.env.on_premises)

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
        if isinstance(message, _PRIME_TYPES):
            self.engine.handle(src, message)
        elif isinstance(message, ClientUpdate):
            self.on_client_update(src, message)
        elif isinstance(message, IntroShare):
            self.on_intro_share(src, message)
        elif isinstance(message, BatchProposal):
            self.on_batch_proposal(src, message)
        elif isinstance(message, BatchShare):
            self.on_batch_share(src, message)
        elif isinstance(message, ResponseShare):
            self.on_response_share(src, message)
        elif isinstance(message, ResponseBatchShare):
            self.on_response_batch_share(src, message)
        elif isinstance(message, (CheckpointMsg, CheckpointDeltaMsg)):
            self.checkpoints.on_checkpoint(src, message)
        elif isinstance(message, StateXferSolicit):
            self.xfer.on_solicit(src, message)
        elif isinstance(message, StateXferResponse):
            self.xfer.on_response(src, message)
        else:
            raise ProtocolError(
                f"{self.host}: unhandled message type {type(message).__name__}"
            )

    # Role-specific handlers overridden by ExecutingReplica.

    def on_client_update(self, src: str, message: ClientUpdate) -> None:
        self.trace("replica.unexpected-client-update", src=src)

    def on_intro_share(self, src: str, message: IntroShare) -> None:
        self.trace("replica.unexpected-intro-share", src=src)

    def on_batch_proposal(self, src: str, message: BatchProposal) -> None:
        self.trace("replica.unexpected-batch-proposal", src=src)

    def on_batch_share(self, src: str, message: BatchShare) -> None:
        self.trace("replica.unexpected-batch-share", src=src)

    def on_response_share(self, src: str, message: ResponseShare) -> None:
        self.trace("replica.unexpected-response-share", src=src)

    def on_response_batch_share(self, src: str, message: ResponseBatchShare) -> None:
        self.trace("replica.unexpected-response-batch-share", src=src)

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
        for ordinal, _origin, _po_seq, update in entries:
            self.process_entry(ordinal, update.payload)
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
        self.on_batch_delivered()

    def process_entry(self, ordinal: int, payload: object) -> None:
        if isinstance(payload, XferRequest):
            self.xfer.on_ordered_request(payload)
        elif isinstance(
            payload, (EncryptedUpdate, ClientUpdate, KeyProposal, SignedUpdateBatch)
        ):
            self.store_entry(ordinal, payload)
        else:
            raise ProtocolError(
                f"{self.host}: unknown ordered payload {type(payload).__name__}"
            )

    def store_entry(self, ordinal: int, payload: object) -> None:
        """Storage behaviour: nothing beyond the update log (kept by
        :meth:`_deliver`); executing replicas override."""

    def on_batch_delivered(self) -> None:
        """Post-delivery hook: executing replicas flush the response batch
        accumulated while processing the ordered batch (BatchLab)."""

    # -- update validation (Prime callback) ----------------------------------------------------

    def _validate(self, update: OpaqueUpdate) -> bool:
        payload = update.payload
        if isinstance(payload, EncryptedUpdate):
            if self.env.intro_public is None:
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
        if isinstance(payload, SignedUpdateBatch):
            if self.env.intro_public is None or not payload.items:
                return False
            # The root must re-derive from the member digests: the
            # signature then covers every item, and no item can be
            # swapped without invalidating it.
            root = merkle_root([item.digest() for item in payload.items])
            if root != payload.root:
                return False
            return verify_with(
                self.env.verify_cache,
                self.env.intro_public,
                payload.signing_bytes(),
                payload.threshold_sig,
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

    # -- state transfer application ----------------------------------------------------------------------

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
        if checkpoint is not None or deltas:
            # Capture the local anchor *before* adopting: when responders
            # omitted the full snapshot (our have_ordinal proved we hold
            # it), the chain applies on top of our own stable chain.
            anchor = checkpoint if checkpoint is not None else self.checkpoints.stable
            prior = (
                tuple(self.checkpoints.stable_deltas) if checkpoint is None else ()
            )
            self.checkpoints.adopt_chain(checkpoint, deltas)
            if deltas:
                self.restore_from_chain(anchor, prior + tuple(deltas))
            else:
                self.restore_from_checkpoint(checkpoint)
        for record in batches:
            self.update_log[record.batch_seq] = record
            self.store.append(record)
            for ordinal, payload in record.entries:
                self.replay_entry(ordinal, payload)
        if batches:
            resume = batches[-1].resume
        elif deltas:
            resume = deltas[-1].resume
        elif checkpoint is not None:
            resume = checkpoint.resume
        else:
            resume = None
        if resume is not None:
            self.engine.fast_forward(
                resume.batch_seq,
                resume.ordinal,
                resume.ordered_through_dict(),
                view=view,
            )
        elif view > self.engine.view:
            self.engine.fast_forward(0, 0, {}, view=view)
        self.checkpoints.retry_stability()
        self.on_state_transfer_done()

    def restore_from_checkpoint(self, checkpoint: CheckpointMsg) -> None:
        """Storage replicas keep the blob opaque; nothing to apply."""

    def restore_from_chain(
        self,
        checkpoint: CheckpointMsg,
        deltas: Tuple[CheckpointDeltaMsg, ...],
    ) -> None:
        """Storage replicas keep chain blobs opaque; nothing to apply."""

    def replay_entry(self, ordinal: int, payload: object) -> None:
        """Storage replicas only store; executing replicas re-execute."""

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

    # -- checkpoint hooks --------------------------------------------------------------------------------------

    def build_checkpoint_blob(self):
        raise ProtocolError(f"{self.host}: storage replicas do not checkpoint")

    def build_checkpoint_state(self) -> dict:
        raise ProtocolError(f"{self.host}: storage replicas do not checkpoint")

    def encode_checkpoint_state(self, state: dict):
        raise ProtocolError(f"{self.host}: storage replicas do not checkpoint")

    def build_delta_blob(self, base_state: dict, state: dict):
        raise ProtocolError(f"{self.host}: storage replicas do not checkpoint")

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
        self.update_log = {}
        config = self.env.config
        self.checkpoints = CheckpointManager(
            self, config.checkpoint_interval, config.checkpoint_delta_interval
        )
        self.xfer = StateTransferManager(self)
        self.reset_role_state()
        self.engine = self._make_engine()
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
        if load.damaged:
            recovery.corruption_detected = True
            self.metrics.counter("store.corruption_detected", host=self.host).inc()
            self.trace(
                "store.corrupted",
                segments=load.corrupt_segments,
                checkpoints=load.corrupt_checkpoints,
                deltas=load.corrupt_deltas,
            )
        if load.truncated_tail:
            self.trace("store.truncated")
        if load.empty:
            return recovery
        checkpoint = load.checkpoint
        chain = load.chain_deltas() if checkpoint is not None else []
        base_seq = 0
        if checkpoint is not None and chain:
            try:
                self.restore_from_chain(checkpoint, tuple(chain))
            except Exception:
                # A delta verified (magic + CRC) but its content does not
                # decrypt/parse or apply. The chain is broken: fall back
                # to the full snapshot alone (plus the log tail).
                recovery.corruption_detected = True
                self.metrics.counter("store.corruption_detected", host=self.host).inc()
                self.trace("store.corrupted", stage="delta-restore")
                chain = []
            else:
                self.checkpoints.adopt_chain(checkpoint, tuple(chain))
                base_seq = chain[-1].resume.batch_seq
                recovery.ordinal = chain[-1].ordinal
                recovery.bytes_replayed += load.checkpoint_bytes + load.delta_bytes
        if checkpoint is not None and not chain:
            try:
                self.restore_from_checkpoint(checkpoint)
            except Exception:
                # The file verified (magic + CRC) but the content does not
                # decrypt/parse — e.g. bit rot below CRC collision odds or
                # a hostile rewrite. Fall back to the network entirely.
                recovery.corruption_detected = True
                self.metrics.counter("store.corruption_detected", host=self.host).inc()
                self.trace("store.corrupted", stage="checkpoint-restore")
                checkpoint = None
            else:
                self.checkpoints.adopt_stable(checkpoint)
                base_seq = checkpoint.resume.batch_seq
                recovery.ordinal = checkpoint.ordinal
                recovery.bytes_replayed += load.checkpoint_bytes
        if chain:
            resume = chain[-1].resume
        elif checkpoint is not None:
            resume = checkpoint.resume
        else:
            resume = None
        next_seq = base_seq + 1
        for record in load.records:
            if record.batch_seq < next_seq:
                continue
            if record.batch_seq > next_seq:
                break  # a gap: the rest must come over the network
            self.update_log[record.batch_seq] = record
            for ordinal, payload in record.entries:
                self.replay_entry(ordinal, payload)
            resume = record.resume
            recovery.records += 1
            recovery.bytes_replayed += load.record_bytes.get(record.batch_seq, 0)
            next_seq += 1
        if resume is not None:
            self.engine.fast_forward(
                resume.batch_seq,
                resume.ordinal,
                resume.ordered_through_dict(),
                view=self.engine.view,
            )
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

    def reset_role_state(self) -> None:
        """Subclass hook: clear role-specific session state."""


class StorageReplica(ReplicaBase):
    """A data-center replica: orders and stores, never executes.

    This class deliberately has *no* application instance, no client keys,
    and no decryption capability — confidentiality by construction, and
    the auditor verifies it dynamically as well.
    """

    hosts_application = False

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


class ExecutingReplica(ReplicaBase):
    """An application-hosting replica (on-premises in Confidential Spire;
    every replica in the Spire baseline)."""

    hosts_application = True

    #: Responses retained per client for retransmit replay; must exceed
    #: the number of updates a proxy can pipeline while one reply is lost
    #: (retransmit window / update interval).
    response_cache_window = 32

    def __init__(
        self,
        env: ReplicaEnv,
        host: str,
        keystore: HardwareKeyStore,
        app_factory: Callable[[], Application],
        intro_share: Optional[ThresholdKeyShare],
        response_share: ThresholdKeyShare,
    ):
        self._app_factory = app_factory
        self.app: Application = app_factory()
        self.intro_share = intro_share
        self.response_share = response_share
        super().__init__(env, host, keystore)
        self.intro = IntroductionManager(self)
        self.key_manager = KeyManager()
        self.renewal = KeyRenewalManager(self)
        self._executed: Dict[str, ClientProgress] = {}
        # Recent threshold-signed responses, kept per client for a window
        # of sequence numbers: the proxy pipelines updates, so the reply
        # for seq n must stay replayable to retransmits even after seqs
        # n+1.. complete (a single "last response" slot loses it).
        self._response_cache: Dict[str, Dict[int, ClientResponse]] = {}
        self._response_shares: Dict[Tuple[str, int, bytes], Dict[int, PartialSignature]] = {}
        self._pending_responses: Dict[Tuple[str, int], bytes] = {}
        self._responses_combined: Set[Tuple[str, int]] = set()
        # BatchLab: responses produced while executing one ordered batch,
        # certified together under one threshold signature per batch.
        self._response_batch_buffer: List[Tuple[str, int, bytes]] = []
        self._response_batch_cost = 0.0
        self._pending_response_batches: Dict[bytes, Tuple[Tuple[str, int, bytes], ...]] = {}
        self._response_batch_shares: Dict[bytes, Dict[int, PartialSignature]] = {}
        self._response_batches_combined: Set[bytes] = set()
        metrics = self.metrics
        self._m_executed = metrics.counter("replica.updates_executed")
        self._m_resp_partial = metrics.counter("crypto.threshold.partial", op="response")
        self._m_resp_combine = metrics.counter("crypto.threshold.combine", op="response")
        self._m_resp_combined = metrics.counter("response.combined")
        self._m_aes_decrypt = metrics.counter("crypto.aes.decrypt")
        self._m_hw_encrypt = metrics.counter("crypto.hw.encrypt")
        self._m_hw_decrypt = metrics.counter("crypto.hw.decrypt")
        self._install_initial_keys()

    @property
    def client_registry(self) -> Dict[str, RsaPublicKey]:
        return self.env.client_registry

    @property
    def intro_public(self) -> ThresholdPublicKey:
        if self.env.intro_public is None:
            raise ProtocolError("no intro threshold key configured")
        return self.env.intro_public

    def _install_initial_keys(self) -> None:
        if not self.confidential:
            return
        config = self.env.config
        validity = config.key_validity if config.key_renewal_enabled else 10 ** 12
        for alias, keys in self.env.initial_client_keys.items():
            self.key_manager.register_client(alias, keys, validity)

    # -- client path ------------------------------------------------------------------

    def on_client_update(self, src: str, message: ClientUpdate) -> None:
        self.observe_plaintext(message.body.label, channel="client-network")
        self.intro.on_client_update(message)

    def on_intro_share(self, src: str, message: IntroShare) -> None:
        self.intro.on_intro_share(src, message)

    def on_batch_proposal(self, src: str, message: BatchProposal) -> None:
        self.intro.on_batch_proposal(src, message)

    def on_batch_share(self, src: str, message: BatchShare) -> None:
        self.intro.on_batch_share(src, message)

    @property
    def batching(self) -> bool:
        return self.env.config.intro_batch_size > 1

    def executed_seq(self, alias: str) -> int:
        """Highest client sequence seen executed (renewal trigger input)."""
        progress = self._executed.get(alias)
        return progress.high_watermark if progress else 0

    def is_executed(self, alias: str, client_seq: int) -> bool:
        progress = self._executed.get(alias)
        return progress is not None and progress.is_executed(client_seq)

    def _mark_executed(self, alias: str, client_seq: int) -> None:
        self._executed.setdefault(alias, ClientProgress()).mark(client_seq)

    # -- ordered entries ----------------------------------------------------------------

    def store_entry(self, ordinal: int, payload: object) -> None:
        if isinstance(payload, EncryptedUpdate):
            self._execute_encrypted(payload)
        elif isinstance(payload, SignedUpdateBatch):
            for item in payload.items:
                self._execute_encrypted(item)
        elif isinstance(payload, ClientUpdate):
            self._execute_plain(payload)
        elif isinstance(payload, KeyProposal):
            self.renewal.on_ordered_proposal(payload)

    def _execute_encrypted(self, payload: EncryptedUpdate) -> None:
        if self.is_executed(payload.alias, payload.client_seq):
            return
        packed = self.key_manager.decrypt_update(
            payload.alias, payload.client_seq, payload.ciphertext
        )
        self._m_aes_decrypt.inc()
        client_id, client_seq, body = unpack_update(packed)
        self.observe_plaintext("client-update-body", channel="decryption")
        self._apply_update(
            payload.alias,
            client_id,
            client_seq,
            body,
            extra_cost=self.costs.update_decrypt,
        )

    def _execute_plain(self, payload: ClientUpdate) -> None:
        alias = client_alias(payload.client_id)
        if self.is_executed(alias, payload.client_seq):
            return
        self.observe_plaintext(payload.body.label, channel="execution")
        self._apply_update(alias, payload.client_id, payload.client_seq, payload.body.data)

    def _apply_update(
        self,
        alias: str,
        client_id: str,
        client_seq: int,
        body: bytes,
        extra_cost: float = 0.0,
    ) -> None:
        response_body = self.app.execute(client_id, client_seq, body)
        self._mark_executed(alias, client_seq)
        self.intro.mark_executed(alias, client_seq)
        self.renewal.on_client_progress(alias)
        self._m_executed.inc()
        self.trace("replica.executed", client=alias, seq=client_seq)
        if response_body is not None:
            if self.batching:
                # The threshold partial is amortised over every response
                # from this ordered batch; per-update costs accumulate and
                # are charged once at the flush.
                self._response_batch_buffer.append(
                    (client_id, client_seq, response_body)
                )
                self._response_batch_cost += extra_cost + self.costs.app_execute
                return
            cost = extra_cost + self.costs.app_execute + self.costs.threshold_partial
            self.after(cost, self._share_response, client_id, client_seq, response_body)

    # -- response pipeline -----------------------------------------------------------------

    def _share_response(self, client_id: str, client_seq: int, body: bytes) -> None:
        if not self.online:
            return
        response = ClientResponse(
            client_id=client_id,
            client_seq=client_seq,
            body=Sensitive(body, label="client-response"),
            threshold_sig=b"",
        )
        signing = response.signing_bytes()
        self._m_resp_partial.inc()
        partial = self.response_share.sign_partial(signing)
        import hashlib

        digest = hashlib.sha256(signing).digest()
        self._pending_responses[(client_id, client_seq)] = body
        share = ResponseShare(
            client_id=client_id,
            client_seq=client_seq,
            response_digest=digest,
            partial=partial,
        )
        for peer in self.executing_peers():
            self.network_send(peer, share)
        self.on_response_share(self.host, share)

    def on_response_share(self, src: str, message: ResponseShare) -> None:
        key = (message.client_id, message.client_seq, message.response_digest)
        partials = self._response_shares.setdefault(key, {})
        partials[message.partial.signer] = message.partial
        pending_key = (message.client_id, message.client_seq)
        if (
            len(partials) >= self.env.response_public.threshold
            and pending_key in self._pending_responses
            and pending_key not in self._responses_combined
        ):
            self._responses_combined.add(pending_key)
            self.after(
                self.costs.threshold_combine, self._combine_response, pending_key, key
            )

    def _combine_response(self, pending_key, vote_key) -> None:
        if not self.online:
            return
        body = self._pending_responses.get(pending_key)
        if body is None:
            return
        client_id, client_seq = pending_key
        response = ClientResponse(
            client_id=client_id,
            client_seq=client_seq,
            body=Sensitive(body, label="client-response"),
            threshold_sig=b"",
        )
        partials = list(self._response_shares.get(vote_key, {}).values())
        self._m_resp_combine.inc()
        try:
            signature = combine_with_retry(
                self.env.response_public, response.signing_bytes(), partials
            )
        except SignatureError:
            # Not enough honest shares yet (Byzantine co-signers); clear
            # the in-progress marker so a later share retriggers us.
            self.trace("response.combine-failed", client=client_id, seq=client_seq)
            self._responses_combined.discard(pending_key)
            return
        del self._pending_responses[pending_key]
        signed = ClientResponse(
            client_id=client_id,
            client_seq=client_seq,
            body=response.body,
            threshold_sig=signature,
        )
        cache = self._response_cache.setdefault(client_id, {})
        cache[client_seq] = signed
        while len(cache) > self.response_cache_window:
            del cache[min(cache)]
        self._response_shares.pop(vote_key, None)
        self._m_resp_combined.inc()
        # Span milestone: the response is fully threshold-signed here; what
        # remains is the network trip back to the proxy plus verification.
        self.trace(
            "response.combined", alias=client_alias(client_id), seq=client_seq
        )
        self._maybe_send_response(signed)

    # -- batched response pipeline (BatchLab) -------------------------------------

    def on_batch_delivered(self) -> None:
        if not self._response_batch_buffer:
            return
        items = tuple(self._response_batch_buffer)
        self._response_batch_buffer = []
        cost = self._response_batch_cost + self.costs.threshold_partial
        self._response_batch_cost = 0.0
        self.after(cost, self._share_response_batch, items)

    @staticmethod
    def _response_leaf(client_id: str, client_seq: int, body: bytes) -> bytes:
        # Matches ClientResponse.signing_bytes / CertifiedResponse.leaf:
        # the Merkle leaf is the digest of the bytes a singleton response
        # would have threshold-signed directly.
        return hashlib.sha256(
            f"response|{client_id}|{client_seq}|".encode("utf-8") + body
        ).digest()

    def _share_response_batch(self, items) -> None:
        if not self.online:
            return
        leaves = [self._response_leaf(cid, seq, body) for cid, seq, body in items]
        root = merkle_root(leaves)
        self._pending_response_batches[root] = items
        self._m_resp_partial.inc()
        partial = sign_partial_via(
            self.env.crypto_pool,
            self.response_share,
            response_batch_signing_bytes(root, len(items)),
        )
        share = ResponseBatchShare(root=root, count=len(items), partial=partial)
        for peer in self.executing_peers():
            self.network_send(peer, share)
        self.on_response_batch_share(self.host, share)

    def on_response_batch_share(self, src: str, message: ResponseBatchShare) -> None:
        partials = self._response_batch_shares.setdefault(message.root, {})
        partials[message.partial.signer] = message.partial
        if (
            len(partials) >= self.env.response_public.threshold
            and message.root in self._pending_response_batches
            and message.root not in self._response_batches_combined
        ):
            self._response_batches_combined.add(message.root)
            self.after(
                self.costs.threshold_combine,
                self._combine_response_batch,
                message.root,
            )

    def _combine_response_batch(self, root: bytes) -> None:
        if not self.online:
            return
        items = self._pending_response_batches.get(root)
        if items is None:
            return
        partials = list(self._response_batch_shares.get(root, {}).values())
        self._m_resp_combine.inc()
        try:
            batch_sig = combine_via(
                self.env.crypto_pool,
                self.env.response_public,
                response_batch_signing_bytes(root, len(items)),
                partials,
            )
        except SignatureError:
            self.trace("response.batch-combine-failed", count=len(items))
            self._response_batches_combined.discard(root)
            return
        del self._pending_response_batches[root]
        self._response_batch_shares.pop(root, None)
        leaves = [self._response_leaf(cid, seq, body) for cid, seq, body in items]
        for index, (client_id, client_seq, body) in enumerate(items):
            certified = CertifiedResponse(
                client_id=client_id,
                client_seq=client_seq,
                body=Sensitive(body, label="client-response"),
                batch_root=root,
                batch_count=len(items),
                batch_sig=batch_sig,
                proof=merkle_proof(leaves, index),
            )
            cache = self._response_cache.setdefault(client_id, {})
            cache[client_seq] = certified
            while len(cache) > self.response_cache_window:
                del cache[min(cache)]
            self._m_resp_combined.inc()
            self.trace(
                "response.combined", alias=client_alias(client_id), seq=client_seq
            )
            self._maybe_send_response(certified)

    def _maybe_send_response(self, response) -> None:
        """Send to the proxy if this replica is in the client's responder
        set (first f+1 on-premises replicas in preference order)."""
        site = self.env.network.topology.site_of(self.host)
        if not site.is_on_premises:
            return
        alias = client_alias(response.client_id)
        rank = self.intro.introducer_rank(alias)
        if rank > self.f:
            return
        proxy = self.env.proxy_of_client.get(response.client_id)
        if proxy is not None:
            self.network_send(proxy, response)

    def resend_response(self, client_id: str, client_seq: int) -> None:
        """A retransmitted update for an already-executed sequence: resend
        the cached threshold-signed response (Section V-C)."""
        cached = self._response_cache.get(client_id, {}).get(client_seq)
        if cached is not None:
            proxy = self.env.proxy_of_client.get(client_id)
            if proxy is not None:
                self.network_send(proxy, cached)

    # -- checkpointing --------------------------------------------------------------------------

    @staticmethod
    def _response_to_state(seq: int, response) -> list:
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

    @staticmethod
    def _response_from_state(client: str, entry: list):
        from repro.crypto.merkle import MerkleProof

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

    #: Hex characters per ``app`` block in the delta-friendly state shape.
    _APP_BLOCK_HEX = 1024

    def build_checkpoint_state(self) -> dict:
        """The delta-friendly state document (CompactLab chains).

        Structured so :func:`repro.core.statedelta.diff_state` produces
        small diffs between consecutive checkpoints: the app contributes
        its structured :meth:`~repro.core.app.Application.state_doc` when
        it has one (only changed keys ship), falling back to the opaque
        snapshot split into fixed-size hex blocks keyed by index (only
        touched blocks ship); each client's response cache is keyed by
        sequence number (only new/evicted entries ship). The legacy
        full-blob shape (:meth:`build_checkpoint_blob`) is kept verbatim
        for the delta-off path — its bytes are a trace-identity
        contract."""
        doc = self.app.state_doc()
        if doc is not None:
            app_state: dict = {"doc": doc}
        else:
            blob_hex = self.app.snapshot().hex()
            app_state = {
                "blocks": {
                    f"{index:08d}": blob_hex[offset : offset + self._APP_BLOCK_HEX]
                    for index, offset in enumerate(
                        range(0, len(blob_hex), self._APP_BLOCK_HEX)
                    )
                }
            }
        state = {
            "app": app_state,
            "executed": {
                alias: progress.to_state()
                for alias, progress in sorted(self._executed.items())
            },
            "responses": {
                client: {
                    str(seq): self._response_to_state(seq, r)
                    for seq, r in sorted(cache.items())
                }
                for client, cache in sorted(self._response_cache.items())
            },
        }
        if self.confidential:
            state["keys"] = self.key_manager.to_state()
            state["renewal"] = self.renewal.to_state()
        return state

    def encode_checkpoint_state(self, state: dict):
        packed = json.dumps(state, sort_keys=True).encode("utf-8")
        self.observe_plaintext("state-snapshot", channel="checkpoint")
        if self.confidential:
            self._m_hw_encrypt.inc()
            return self.keystore.hardware_encrypt(packed)
        return Sensitive(packed, label="state-snapshot")

    def build_checkpoint_blob(self):
        state = {
            "app": self.app.snapshot().hex(),
            "executed": {
                alias: progress.to_state()
                for alias, progress in sorted(self._executed.items())
            },
            "responses": {
                client: [
                    self._response_to_state(seq, r)
                    for seq, r in sorted(cache.items())
                ]
                for client, cache in sorted(self._response_cache.items())
            },
        }
        if self.confidential:
            state["keys"] = self.key_manager.to_state()
            state["renewal"] = self.renewal.to_state()
        return self.encode_checkpoint_state(state)

    def build_delta_blob(self, base_state: dict, state: dict):
        """Encode the diff ``base_state -> state`` exactly like a full blob
        (hardware-encrypted when confidential): a delta leaks no more than
        the snapshot it abbreviates."""
        delta = diff_state(base_state, state)
        packed = json.dumps(delta, sort_keys=True).encode("utf-8")
        self.observe_plaintext("state-delta", channel="checkpoint")
        if self.confidential:
            self._m_hw_encrypt.inc()
            return self.keystore.hardware_encrypt(packed)
        return Sensitive(packed, label="state-delta")

    def decode_checkpoint_blob(self, blob_bytes: bytes) -> dict:
        if self.confidential:
            self._m_hw_decrypt.inc()
            packed = self.keystore.hardware_decrypt(blob_bytes)
        else:
            packed = blob_bytes
        return json.loads(packed.decode("utf-8"))

    def restore_from_checkpoint(self, checkpoint: CheckpointMsg) -> None:
        state = self.decode_checkpoint_blob(checkpoint.blob_bytes())
        self._install_state(state)

    def restore_from_chain(
        self,
        checkpoint: CheckpointMsg,
        deltas: Tuple[CheckpointDeltaMsg, ...],
    ) -> None:
        state = self.decode_checkpoint_blob(checkpoint.blob_bytes())
        for delta in deltas:
            patch = self.decode_checkpoint_blob(delta.blob_bytes())
            state = apply_delta(state, patch)
        self._install_state(state)

    def _install_state(self, state: dict) -> None:
        app = state["app"]
        if isinstance(app, dict) and "doc" in app:
            # Delta-friendly shape: the app's structured state document.
            self.app.restore_state_doc(app["doc"])
        else:
            if isinstance(app, dict):
                # Delta-friendly fallback: fixed-size hex blocks by index.
                blocks = app["blocks"]
                app = "".join(blocks[key] for key in sorted(blocks))
            self.app.restore(bytes.fromhex(app))
        self._executed = {
            alias: ClientProgress.from_state(progress_state)
            for alias, progress_state in state["executed"].items()
        }
        self._response_cache = {}
        for client, entries in state["responses"].items():
            cache = self._response_cache.setdefault(client, {})
            # Legacy shape: a list of entries; delta-friendly shape: a
            # dict keyed by str(client_seq). Entries are identical.
            if isinstance(entries, dict):
                entries = [entries[key] for key in sorted(entries, key=int)]
            for entry in entries:
                response = self._response_from_state(client, entry)
                cache[response.client_seq] = response
        if self.confidential and "keys" in state:
            self.key_manager.restore_state(state["keys"])
            self.renewal.restore_state(state.get("renewal", {}))
        self.observe_plaintext("state-snapshot", channel="state-transfer")

    # -- state transfer replay ---------------------------------------------------------------------

    def replay_entry(self, ordinal: int, payload: object) -> None:
        if isinstance(payload, SignedUpdateBatch):
            for item in payload.items:
                self.replay_entry(ordinal, item)
        elif isinstance(payload, EncryptedUpdate):
            if self.is_executed(payload.alias, payload.client_seq):
                return
            packed = self.key_manager.decrypt_update(
                payload.alias, payload.client_seq, payload.ciphertext
            )
            client_id, client_seq, body = unpack_update(packed)
            self.app.execute(client_id, client_seq, body)
            self._mark_executed(payload.alias, client_seq)
            self.renewal.on_client_progress(payload.alias)
        elif isinstance(payload, ClientUpdate):
            alias = client_alias(payload.client_id)
            if self.is_executed(alias, payload.client_seq):
                return
            self.app.execute(payload.client_id, payload.client_seq, payload.body.data)
            self._mark_executed(alias, payload.client_seq)
        elif isinstance(payload, KeyProposal):
            self.renewal.on_ordered_proposal(payload)

    # -- recovery -----------------------------------------------------------------------------------

    def reset_role_state(self) -> None:
        self.app = self._app_factory()
        self.intro = IntroductionManager(self)
        self.key_manager = KeyManager()
        self.renewal = KeyRenewalManager(self)
        self._executed = {}
        self._response_cache = {}
        self._response_shares = {}
        self._pending_responses = {}
        self._responses_combined = set()
        self._response_batch_buffer = []
        self._response_batch_cost = 0.0
        self._pending_response_batches = {}
        self._response_batch_shares = {}
        self._response_batches_combined = set()
        self._install_initial_keys()
