"""Secret-sharing confidential storage baseline (Section II-C).

The related-work approach to confidential BFT (DepSpace, Belisarius,
COBRA) has clients split values with an (f+1, n)-threshold secret-sharing
scheme, giving each replica one share: any f+1 replicas reconstruct, any f
learn nothing. This buys confidentiality *against f compromised replicas
anywhere* — stronger in that respect than Confidential Spire — but
supports only storage-shaped operations: the servers cannot execute
application logic over data they cannot see.

This module implements such a store over the same simulation substrate,
so the repository can demonstrate the trade-off concretely: the baseline
cannot run the SCADA master at all (no server-side execution), while
Confidential Spire can, at the cost of trusting the on-premises hosts.

The replication layer here is deliberately simple (write-to-all,
ack-quorum of 2f+1; read f+1 matching shares) — enough to measure the
storage data path, not a full BFT engine; the full engine is what
:mod:`repro.prime` provides for the main system. Its four messages are
not wire messages of the system (no codec row, never sent live), so each
send states its size to the network: the key and share bytes it carries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.crypto.shamir import reconstruct_bytes, split_bytes
from repro.errors import ConfigurationError
from repro.rt.substrate import Scheduler, Transport
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class StoreWrite:
    key: str
    version: int
    share: bytes
    request_id: int


@dataclass(frozen=True)
class StoreWriteAck:
    key: str
    version: int
    request_id: int


@dataclass(frozen=True)
class StoreRead:
    key: str
    request_id: int


@dataclass(frozen=True)
class StoreReadReply:
    key: str
    version: int
    share: Optional[bytes]
    request_id: int
    replica_index: int


class SecretStoreReplica:
    """One storage replica: holds a single share per key, never the value."""

    def __init__(self, network: Transport, host: str, index: int):
        self.network = network
        self.host = host
        self.index = index
        self._shares: Dict[str, Tuple[int, bytes]] = {}
        network.register(host, self.on_message)

    def on_message(self, src: str, message: object) -> None:
        if isinstance(message, StoreWrite):
            current = self._shares.get(message.key)
            if current is None or message.version > current[0]:
                self._shares[message.key] = (message.version, message.share)
            self.network.send(
                self.host,
                src,
                StoreWriteAck(
                    key=message.key, version=message.version, request_id=message.request_id
                ),
                size=len(message.key),
            )
        elif isinstance(message, StoreRead):
            stored = self._shares.get(message.key)
            version, share = stored if stored is not None else (0, None)
            self.network.send(
                self.host,
                src,
                StoreReadReply(
                    key=message.key,
                    version=version,
                    share=share,
                    request_id=message.request_id,
                    replica_index=self.index,
                ),
                size=len(message.key) + len(share or b""),
            )

    def stored_share(self, key: str) -> Optional[bytes]:
        stored = self._shares.get(key)
        return stored[1] if stored else None


class SecretStoreClient:
    """A client that splits values into shares and reassembles them."""

    def __init__(
        self,
        kernel: Scheduler,
        network: Transport,
        host: str,
        replicas: List[str],
        f: int,
        rng: RngRegistry,
    ):
        if len(replicas) < 3 * f + 1:
            raise ConfigurationError("secret-sharing BFT storage needs n >= 3f+1")
        self.kernel = kernel
        self.network = network
        self.host = host
        self.replicas = list(replicas)
        self.f = f
        self._rng = rng.stream(f"secret-store.{host}")
        self._request_ids = itertools.count(1)
        self._versions: Dict[str, int] = {}
        self._write_acks: Dict[int, Set[str]] = {}
        self._write_done: Dict[int, Callable[[], None]] = {}
        self._read_replies: Dict[int, Dict[int, StoreReadReply]] = {}
        self._read_done: Dict[int, Callable[[Optional[bytes]], None]] = {}
        network.register(host, self.on_message)

    # -- operations -------------------------------------------------------------

    def write(self, key: str, value: bytes, on_done: Callable[[], None]) -> int:
        """Split ``value`` and store one share per replica.

        Completion fires after a 2f+1 ack quorum, guaranteeing f+1 correct
        replicas hold shares (reconstruction quorum survives f failures).
        """
        request_id = next(self._request_ids)
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        shares = split_bytes(value, self.f + 1, len(self.replicas), self._rng)
        self._write_acks[request_id] = set()
        self._write_done[request_id] = on_done
        for index, replica in enumerate(self.replicas, start=1):
            self.network.send(
                self.host,
                replica,
                StoreWrite(
                    key=key, version=version, share=shares[index], request_id=request_id
                ),
                size=len(key) + len(shares[index]),
            )
        return request_id

    def read(self, key: str, on_done: Callable[[Optional[bytes]], None]) -> int:
        """Collect shares and reconstruct; None when the key is unknown."""
        request_id = next(self._request_ids)
        self._read_replies[request_id] = {}
        self._read_done[request_id] = on_done
        for replica in self.replicas:
            self.network.send(
                self.host, replica, StoreRead(key=key, request_id=request_id), size=len(key)
            )
        return request_id

    # -- replies -------------------------------------------------------------------

    def on_message(self, src: str, message: object) -> None:
        if isinstance(message, StoreWriteAck):
            acks = self._write_acks.get(message.request_id)
            if acks is None:
                return
            acks.add(src)
            if len(acks) >= 2 * self.f + 1:
                done = self._write_done.pop(message.request_id, None)
                self._write_acks.pop(message.request_id, None)
                if done is not None:
                    done()
        elif isinstance(message, StoreReadReply):
            replies = self._read_replies.get(message.request_id)
            if replies is None:
                return
            replies[message.replica_index] = message
            self._try_reconstruct(message.request_id)

    def _try_reconstruct(self, request_id: int) -> None:
        replies = self._read_replies.get(request_id)
        if replies is None:
            return
        # Group replies by version; reconstruct once f+1 shares of the
        # highest acked version are available.
        by_version: Dict[int, Dict[int, bytes]] = {}
        empty = 0
        for reply in replies.values():
            if reply.share is None:
                empty += 1
            else:
                by_version.setdefault(reply.version, {})[reply.replica_index] = reply.share
        for version in sorted(by_version, reverse=True):
            shares = by_version[version]
            if len(shares) >= self.f + 1:
                subset = dict(list(shares.items())[: self.f + 1])
                value = reconstruct_bytes(subset)
                done = self._read_done.pop(request_id, None)
                self._read_replies.pop(request_id, None)
                if done is not None:
                    done(value)
                return
        if empty >= 2 * self.f + 1:
            done = self._read_done.pop(request_id, None)
            self._read_replies.pop(request_id, None)
            if done is not None:
                done(None)
