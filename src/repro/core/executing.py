"""The executing role: everything on the plaintext side of the boundary.

An :class:`ExecutingReplica` is a :class:`~repro.core.replica.ReplicaBase`
that also hosts the application, holds the client key schedules and its
threshold key shares, introduces client updates, decrypts and executes
ordered ones, certifies responses, and snapshots its state into encrypted
checkpoints. On-premises replicas run it in Confidential Spire.

The Spire 1.2 baseline is expressed with the same class: every replica
(including those in data centers) is an :class:`ExecutingReplica` with
``confidential=False``, which skips encryption and threshold introduction;
the confidentiality auditor then records the resulting plaintext exposure
at data-center hosts, quantifying the gap Confidential Spire closes.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional, Set, Tuple, Union

from repro.core.app import Application
from repro.core.confidentiality import Sensitive
from repro.core.encryption import KeyManager
from repro.core.intro import IntroductionManager
from repro.core.key_renewal import KeyRenewalManager
from repro.core.messages import (
    BatchProposal,
    BatchShare,
    CheckpointDeltaMsg,
    CheckpointMsg,
    ClientUpdate,
    EncryptedUpdate,
    IntroShare,
    KeyProposal,
    ResponseBatchShare,
    ResponseShare,
    SignedUpdateBatch,
    client_alias,
    unpack_update,
)
from repro.core.replica import ReplicaBase, ReplicaEnv
from repro.core.response import ResponseManager
from repro.core.statedelta import apply_delta
from repro.crypto.keystore import HardwareKeyStore
from repro.crypto.symmetric import SymmetricKeyPair
from repro.crypto.threshold import ThresholdKeyShare, ThresholdPublicKey
from repro.errors import ProtocolError


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


class ExecutingReplica(ReplicaBase):
    """An application-hosting replica (on-premises in Confidential Spire;
    every replica in the Spire baseline)."""

    hosts_application = True

    #: Responses retained per client for retransmit replay; must exceed
    #: the number of updates a proxy can pipeline while one reply is lost
    #: (retransmit window / update interval). Also bounds how many early
    #: or finished share-collection rounds a replica remembers.
    response_cache_window = 32

    #: Hex characters per ``app`` block in the delta-friendly state shape.
    _APP_BLOCK_HEX = 1024

    def __init__(
        self,
        env: ReplicaEnv,
        host: str,
        keystore: HardwareKeyStore,
        app_factory: Callable[[], Application],
        intro_share: Optional[ThresholdKeyShare],
        response_share: ThresholdKeyShare,
        client_keys: Dict[str, SymmetricKeyPair],
    ):
        self._app_factory = app_factory
        self._client_keys = client_keys
        self.intro_share = intro_share
        self.response_share = response_share
        super().__init__(env, host, keystore)
        metrics = self.metrics
        self._m_executed = metrics.counter("replica.updates_executed")
        self._m_aes_decrypt = metrics.counter("crypto.aes.decrypt")
        self._m_hw_encrypt = metrics.counter("crypto.hw.encrypt")
        self._m_hw_decrypt = metrics.counter("crypto.hw.decrypt")

    @property
    def intro_public(self) -> ThresholdPublicKey:
        if self.env.intro_public is None:
            raise ProtocolError("no intro threshold key configured")
        return self.env.intro_public

    @property
    def batching(self) -> bool:
        return self.env.config.intro_batch_size > 1

    def _new_session(self) -> None:
        super()._new_session()
        self.app: Application = self._app_factory()
        self.intro = IntroductionManager(self)
        self.key_manager = KeyManager()
        self.renewal = KeyRenewalManager(self)
        self.responses = ResponseManager(self)
        self._executed: Dict[str, ClientProgress] = {}
        if self.confidential:
            config = self.env.config
            validity = config.key_validity if config.key_renewal_enabled else 10 ** 12
            for alias, keys in self._client_keys.items():
                self.key_manager.register_client(alias, keys, validity)
        self._handlers.update(
            {
                ClientUpdate: self._on_client_update,
                IntroShare: self.intro.on_intro_share,
                BatchProposal: self.intro.on_batch_proposal,
                BatchShare: self.intro.on_batch_share,
                ResponseShare: self.responses.on_share,
                ResponseBatchShare: self.responses.on_batch_share,
            }
        )

    # -- client path ------------------------------------------------------------------

    def _on_client_update(self, src: str, message: ClientUpdate) -> None:
        self.observe_plaintext(message.body.label, channel="client-network")
        self.intro.on_client_update(message)

    def executed_seq(self, alias: str) -> int:
        """Highest client sequence seen executed (renewal trigger input)."""
        progress = self._executed.get(alias)
        return progress.high_watermark if progress else 0

    def is_executed(self, alias: str, client_seq: int) -> bool:
        progress = self._executed.get(alias)
        return progress is not None and progress.is_executed(client_seq)

    def resend_response(self, client_id: str, client_seq: int) -> None:
        self.responses.resend(client_id, client_seq)

    # -- ordered entries ----------------------------------------------------------------

    def _deliver(self, entries, batch_seq: int) -> None:
        super()._deliver(entries, batch_seq)
        self.responses.flush()

    def apply_entry(self, payload: object, replay: bool = False) -> None:
        super().apply_entry(payload, replay)
        if isinstance(payload, SignedUpdateBatch):
            for item in payload.items:
                self._execute(item, respond=not replay)
        elif isinstance(payload, (EncryptedUpdate, ClientUpdate)):
            self._execute(payload, respond=not replay)
        elif isinstance(payload, KeyProposal):
            self.renewal.on_ordered_proposal(payload)

    def _execute(self, payload: Union[EncryptedUpdate, ClientUpdate], respond: bool) -> None:
        """Decrypt, dedup, execute and mark one ordered update. Replayed
        updates (state transfer, disk recovery) run with ``respond`` off:
        the application and the dedup/renewal bookkeeping advance exactly
        as when the update was live, but nothing is traced, counted or
        answered — the clients were served by the replicas that were up."""
        if isinstance(payload, EncryptedUpdate):
            alias = payload.alias
            if self.is_executed(alias, payload.client_seq):
                return
            packed = self.key_manager.decrypt_update(
                alias, payload.client_seq, payload.ciphertext
            )
            client_id, client_seq, body = unpack_update(packed)
            label, channel, cost = "client-update-body", "decryption", self.costs.update_decrypt
            if respond:
                self._m_aes_decrypt.inc()
        else:
            alias = client_alias(payload.client_id)
            if self.is_executed(alias, payload.client_seq):
                return
            client_id, client_seq, body = payload.client_id, payload.client_seq, payload.body.data
            label, channel, cost = payload.body.label, "execution", 0.0
        if respond:
            self.observe_plaintext(label, channel=channel)
        response_body = self.app.execute(client_id, client_seq, body)
        self._executed.setdefault(alias, ClientProgress()).mark(client_seq)
        if respond:
            self.intro.mark_executed(alias, client_seq)
        self.renewal.on_client_progress(alias)
        if not respond:
            return
        self._m_executed.inc()
        self.trace("replica.executed", client=alias, seq=client_seq)
        if response_body is not None:
            self.responses.submit(
                client_id, client_seq, response_body, cost + self.costs.app_execute
            )

    # -- checkpointing --------------------------------------------------------------------------

    def state_doc(self, delta_friendly: bool) -> dict:
        """This replica's state as a JSON document, for :meth:`seal`.

        ``delta_friendly`` structures it so
        :func:`repro.core.statedelta.diff_state` produces small diffs
        between consecutive checkpoints (CompactLab chains): the app
        contributes its structured
        :meth:`~repro.core.app.Application.state_doc` when it has one
        (only changed keys ship), falling back to the opaque snapshot split
        into fixed-size hex blocks keyed by index (only touched blocks
        ship), and each client's response cache is keyed by sequence
        number (only new/evicted entries ship). Otherwise it is the legacy
        full-blob shape, kept verbatim for the delta-off path — its bytes
        are a trace-identity contract."""
        state = {
            "app": self._app_state() if delta_friendly else self.app.snapshot().hex(),
            "executed": {
                alias: progress.to_state()
                for alias, progress in sorted(self._executed.items())
            },
            "responses": self.responses.to_state(by_seq=delta_friendly),
        }
        if self.confidential:
            state["keys"] = self.key_manager.to_state()
            state["renewal"] = self.renewal.to_state()
        return state

    def _app_state(self) -> dict:
        doc = self.app.state_doc()
        if doc is not None:
            return {"doc": doc}
        blob_hex = self.app.snapshot().hex()
        step = self._APP_BLOCK_HEX
        return {
            "blocks": {
                f"{index:08d}": blob_hex[offset : offset + step]
                for index, offset in enumerate(range(0, len(blob_hex), step))
            }
        }

    def seal(self, doc: dict, label: str):
        """``doc`` (a state document or a diff between two) as a
        checkpoint blob: hardware-encrypted when confidential — a delta
        leaks no more than the snapshot it abbreviates — else the
        plaintext the auditor then sees reach the data centers."""
        packed = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.observe_plaintext(label, channel="checkpoint")
        if self.confidential:
            self._m_hw_encrypt.inc()
            return self.keystore.hardware_encrypt(packed)
        return Sensitive(packed, label=label)

    def _unseal(self, blob_bytes: bytes) -> dict:
        if self.confidential:
            self._m_hw_decrypt.inc()
            blob_bytes = self.keystore.hardware_decrypt(blob_bytes)
        return json.loads(blob_bytes.decode("utf-8"))

    def install_chain(
        self, checkpoint: CheckpointMsg, deltas: Tuple[CheckpointDeltaMsg, ...]
    ) -> None:
        """Replace this replica's state with ``checkpoint``'s, patched by
        the delta chain anchored at it."""
        state = self._unseal(checkpoint.blob_bytes())
        for delta in deltas:
            state = apply_delta(state, self._unseal(delta.blob_bytes()))
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
        self.responses.restore_state(state["responses"])
        if self.confidential and "keys" in state:
            self.key_manager.restore_state(state["keys"])
            self.renewal.restore_state(state.get("renewal", {}))
        self.observe_plaintext("state-snapshot", channel="state-transfer")
