"""Client proxies (Section IV-A).

A proxy fronts one client (RTU, PLC, or HMI in the SCADA deployment): it
digitally signs the client's updates so replicas can authenticate them,
submits each update to all on-premises replicas (2f+k+1 of them, which for
the confidential distributions is exactly the full on-premises set), and
validates responses by verifying a single threshold signature — proof that
at least one correct replica stood behind the reply.

Proxies retransmit unanswered updates; replicas deduplicate re-executions
and re-send cached responses, so retransmission is safe.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.confidentiality import Sensitive
from repro.core.messages import (
    CertifiedResponse,
    ClientResponse,
    ClientUpdate,
    client_alias,
)
from repro.crypto.merkle import verify_inclusion
from repro.costs import CostModel
from repro.crypto.rsa import RsaKeyPair
from repro.crypto.threshold import ThresholdPublicKey
from repro.crypto.verifycache import verify_with
from repro.obs.registry import NULL_METRICS
from repro.rt.substrate import Scheduler, Transport

ResponseCallback = Callable[[int, bytes, float], None]


class ClientProxy:
    """Proxy for a single client."""

    def __init__(
        self,
        kernel: Scheduler,
        network: Transport,
        host: str,
        client_id: str,
        signing_key: RsaKeyPair,
        response_public: ThresholdPublicKey,
        on_premises_replicas: List[str],
        costs: Optional[CostModel] = None,
        retransmit_timeout: float = 1.0,
        max_retransmits: int = 10,
        tracer=None,
        metrics=None,
        verify_cache=None,
    ):
        self.kernel = kernel
        self.network = network
        self.host = host
        self.client_id = client_id
        self.alias = client_alias(client_id)
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_submitted = metrics.counter("proxy.submitted")
        self._m_completed = metrics.counter("proxy.completed")
        self._m_retransmits = metrics.counter("proxy.retransmits")
        self._m_gave_up = metrics.counter("proxy.gave_up")
        self._m_latency = metrics.histogram("proxy.latency")
        self._m_rsa_sign = metrics.counter("crypto.rsa.sign", site="proxy")
        self._m_thresh_verify = metrics.counter("crypto.threshold.verify", site="proxy")
        self._signing_key = signing_key
        self._response_public = response_public
        self._verify_cache = verify_cache
        self._replicas = list(on_premises_replicas)
        self.costs = costs or CostModel()
        self.retransmit_timeout = retransmit_timeout
        self.max_retransmits = max_retransmits
        self.tracer = tracer
        self._seq = 0
        self._pending: Dict[int, ClientUpdate] = {}
        self._submit_time: Dict[int, float] = {}
        self._retransmit_timers: Dict[int, object] = {}
        self._retransmit_counts: Dict[int, int] = {}
        self._response_callbacks: List[ResponseCallback] = []
        self._certified_callbacks: List[Callable[[object], None]] = []
        self.completed: Dict[int, Tuple[float, bytes]] = {}  # seq -> (latency, body)
        self.retransmissions = 0
        network.register(host, self._on_message)

    def on_response(self, callback: ResponseCallback) -> None:
        """Register a callback invoked as (seq, body, latency_seconds).

        Multiple callbacks may be registered (metrics recorders and the
        client application both listen); they run in registration order.
        """
        self._response_callbacks.append(callback)

    def on_certified(self, callback: Callable[[object], None]) -> None:
        """Register a callback receiving the verified response *message*.

        Unlike :meth:`on_response`, the full :class:`ClientResponse` /
        :class:`CertifiedResponse` object is passed through — the
        cross-shard coordinator needs the threshold signature itself (it
        is the prepare certificate), not just the body.
        """
        self._certified_callbacks.append(callback)

    @property
    def next_seq(self) -> int:
        """The sequence number :meth:`submit` will assign next."""
        return self._seq + 1

    @property
    def gave_up(self) -> int:
        """Updates abandoned after ``max_retransmits`` retransmissions."""
        return int(self._m_gave_up.value)

    # -- submission ---------------------------------------------------------------

    def submit(self, body: bytes) -> int:
        """Sign and submit one update; returns its client sequence number."""
        self._seq += 1
        seq = self._seq
        update = ClientUpdate(
            client_id=self.client_id,
            client_seq=seq,
            body=Sensitive(body, label="client-update-body"),
        )
        signed = ClientUpdate(
            client_id=update.client_id,
            client_seq=update.client_seq,
            body=update.body,
            signature=self._signing_key.sign(update.signing_bytes()),
        )
        self._pending[seq] = signed
        self._submit_time[seq] = self.kernel.now
        self._retransmit_counts[seq] = 0
        self._m_submitted.inc()
        self._m_rsa_sign.inc()
        if self.tracer:
            # Span-open milestone: carries both identities so span tracking
            # can map this proxy host to the update's alias stream.
            self.tracer.record(
                "proxy.submit",
                self.host,
                client=self.client_id,
                alias=self.alias,
                seq=seq,
            )
        self.kernel.call_later(self.costs.rsa_sign, self._send, seq)
        return seq

    def _send(self, seq: int) -> None:
        update = self._pending.get(seq)
        if update is None:
            return
        for replica in self._replicas:
            self.network.send(self.host, replica, update)
        self._retransmit_timers[seq] = self.kernel.call_later(
            self.retransmit_timeout, self._retransmit, seq
        )

    def _retransmit(self, seq: int) -> None:
        self._retransmit_timers.pop(seq, None)
        if seq not in self._pending:
            return
        count = self._retransmit_counts.get(seq, 0)
        if count >= self.max_retransmits:
            self._m_gave_up.inc()
            if self.tracer:
                self.tracer.record("proxy.gave-up", self.host, seq=seq)
            del self._pending[seq]
            return
        self._retransmit_counts[seq] = count + 1
        self.retransmissions += 1
        self._m_retransmits.inc()
        if self.tracer:
            self.tracer.record("proxy.retransmit", self.host, seq=seq)
        self._send(seq)

    # -- responses -------------------------------------------------------------------

    def _on_message(self, src: str, message: object) -> None:
        if not isinstance(message, (ClientResponse, CertifiedResponse)):
            return
        if message.client_id != self.client_id:
            return
        seq = message.client_seq
        if seq not in self._pending:
            return
        self.kernel.call_later(
            self.costs.threshold_verify, self._verify_response, message
        )

    def _verify_response(self, message) -> None:
        seq = message.client_seq
        if seq not in self._pending:
            return
        self._m_thresh_verify.inc()
        if isinstance(message, CertifiedResponse):
            # Batched response: one threshold verification per *batch*
            # (memoised across the batch's members by the verify cache),
            # plus this response's Merkle inclusion proof.
            if not verify_with(
                self._verify_cache,
                self._response_public,
                message.batch_signing_bytes(),
                message.batch_sig,
            ) or not verify_inclusion(
                message.batch_root, message.leaf(), message.proof
            ):
                if self.tracer:
                    self.tracer.record("proxy.bad-response", self.host, seq=seq)
                return
        elif not verify_with(
            self._verify_cache,
            self._response_public,
            message.signing_bytes(),
            message.threshold_sig,
        ):
            if self.tracer:
                self.tracer.record("proxy.bad-response", self.host, seq=seq)
            return
        latency = self.kernel.now - self._submit_time[seq]
        del self._pending[seq]
        timer = self._retransmit_timers.pop(seq, None)
        if timer is not None:
            timer.cancel()
        self.completed[seq] = (latency, message.body.data)
        self._m_completed.inc()
        self._m_latency.observe(latency)
        if self.tracer:
            self.tracer.record("proxy.complete", self.host, seq=seq, latency=latency)
        for callback in self._certified_callbacks:
            callback(message)
        for callback in self._response_callbacks:
            callback(seq, message.body.data, latency)

    # -- statistics ----------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def latencies(self) -> List[Tuple[int, float]]:
        """(seq, latency) pairs for completed updates, in sequence order."""
        return [(seq, self.completed[seq][0]) for seq in sorted(self.completed)]
