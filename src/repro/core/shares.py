"""Collecting threshold partial signatures until they combine.

Executing replicas certify things together — a client response, a
Merkle-rooted batch of responses, a proposer's batch of encrypted updates
— by the same state machine: every participant sends a partial signature
over the same bytes; a replica that holds the payload those bytes stand
for combines as soon as ``threshold`` partials are in, and goes back to
collecting if the combination does not verify (a Byzantine co-signer's
partial was among them). :class:`ShareCollector` is that state machine,
with bounded memory for everything that is not this replica's own work in
flight.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional

from repro.cache import MISS, BoundedLru
from repro.crypto.threshold import PartialSignature, ThresholdPublicKey, combine_via
from repro.errors import SignatureError


class _Round:
    __slots__ = ("message", "payload", "partials", "combining")

    def __init__(self, message: bytes, payload: Any, partials: Dict[int, PartialSignature]):
        self.message = message
        self.payload = payload
        self.partials = partials
        self.combining = False


class ShareCollector:
    """Partial signatures per round key, combined at threshold.

    A round opens when this replica :meth:`submit`\\ s its own partial
    together with the payload and the signed bytes. Partials that
    :meth:`add` finds no open round for are either early (peers ran ahead
    of this replica; kept for the round to pick up) or late (the round was
    certified; dropped). Early partials and the memory of certified rounds
    share one ``window``-bounded table, least recently used forgotten
    first, so a replica that never opens a round — it replayed the update instead of
    executing it live — cannot accumulate them.
    """

    def __init__(
        self,
        replica,
        public: Optional[ThresholdPublicKey],
        *,
        pool: Optional[object],
        window: int,
        counter,
        on_combined: Callable[[Hashable, Any, bytes], None],
        on_failed: Callable[[Hashable, Any], None],
    ):
        self._replica = replica
        self._public = public
        self._pool = pool
        self._counter = counter
        self._on_combined = on_combined
        self._on_failed = on_failed
        self._open: Dict[Hashable, _Round] = {}
        # key -> early partials, or None once the round was certified.
        self._idle = BoundedLru(window)

    def submit(self, key: Hashable, message: bytes, payload: Any, partial: PartialSignature) -> None:
        """Open ``key``'s round: this replica holds ``payload`` and has
        signed ``message`` for it."""
        round_ = self._open[key] = _Round(message, payload, self._idle.pop(key) or {})
        self._collect(key, round_, partial)

    def add(self, key: Hashable, partial: PartialSignature) -> None:
        """A peer's partial for ``key``."""
        round_ = self._open.get(key)
        if round_ is not None:
            self._collect(key, round_, partial)
            return
        early = self._idle.get(key)
        if early is None:
            return  # certified already: a late share
        if early is MISS:
            early = {}
            self._idle.put(key, early)
        early[partial.signer] = partial

    def drop_where(self, finished: Callable[[Any], bool]) -> None:
        """Close every open round whose payload ``finished`` accepts: what
        it was collecting for has been certified some other way, so it is
        remembered like a certified round and later partials are dropped."""
        for key in [k for k, r in self._open.items() if finished(r.payload)]:
            del self._open[key]
            self._idle.put(key, None)

    def _collect(self, key: Hashable, round_: _Round, partial: PartialSignature) -> None:
        round_.partials[partial.signer] = partial
        if not round_.combining and len(round_.partials) >= self._public.threshold:
            round_.combining = True
            replica = self._replica
            replica.after(replica.costs.threshold_combine, self._combine, key)

    def _combine(self, key: Hashable) -> None:
        round_ = self._open.get(key)
        if round_ is None or not self._replica.online:
            return
        self._counter.inc()
        try:
            signature = combine_via(
                self._pool, self._public, round_.message, list(round_.partials.values())
            )
        except SignatureError:
            # Not enough honest shares yet (Byzantine co-signers): back to
            # collecting, so a later share retriggers the combine.
            round_.combining = False
            self._on_failed(key, round_.payload)
            return
        del self._open[key]
        self._idle.put(key, None)
        self._on_combined(key, round_.payload, signature)
