"""Live substrate: framed TCP transport between RtLab processes.

One :class:`LiveTransport` per OS process. It serves a TCP listener for
the hosts that live in this process and opens one persistent outbound
connection per destination host, lazily, with bounded reconnect attempts.
Messages are encoded with the versioned wire format
(:mod:`repro.rt.wire`), so only codec-registered message types can cross
process boundaries — the same property the byte-exact round-trip tests
enforce.

Two deliberate behaviours make it a faithful :class:`Transport`:

- **silent loss**: connection failures drop the message (and count it);
  BFT protocol code retransmits, exactly as over a real WAN;
- **latency injection**: the emulated site-to-site one-way latencies of
  the deployment :class:`~repro.net.topology.Topology` are applied by
  delaying the socket write, so a localhost deployment exhibits the
  paper's East-Coast geography without ``tc`` or root privileges.

Partition faults (FaultLab's ``isolate``) are modelled by a blocked-site
set consulted on both send and receive, mirroring the simulation's
overlay check at send *and* delivery time.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.cache import BoundedLru, FrameCache
from repro.errors import ConfigurationError, ProtocolError
from repro.net.overlay import Overlay
from repro.net.topology import Topology
from repro.obs.hlc import HlcTimestamp, HybridLogicalClock
from repro.obs.registry import MetricsRegistry, NULL_METRICS
from repro.rt.wire import (
    FrameDecoder,
    TraceContext,
    encode_frame,
    extend_frame,
    host_span_id,
    span_trace_id,
)

Handler = Callable[[str, Any], None]

#: Outbound connect attempts per message burst before declaring loss.
_CONNECT_ATTEMPTS = 3
_CONNECT_BACKOFF = 0.25
#: Bound on the per-type instrument-handle maps (see repro.net.network).
_INSTRUMENT_CAPACITY = 256


class _PeerLink:
    """One lazily-connected outbound stream to a peer host."""

    __slots__ = ("writer", "connecting", "queue")

    def __init__(self) -> None:
        self.writer: Optional[asyncio.StreamWriter] = None
        self.connecting = False
        self.queue: List[bytes] = []


class LiveTransport:
    """Delivers codec-registered messages between processes over TCP."""

    def __init__(
        self,
        topology: Topology,
        host_ports: Dict[str, int],
        bind_host: str = "127.0.0.1",
        latency: bool = True,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        frame_cache_enabled: bool = True,
        frame_cache_capacity: int = 1024,
        trace_wire: bool = False,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        self.topology = topology
        self.overlay = Overlay(topology)
        self.host_ports = dict(host_ports)
        self.bind_host = bind_host
        self.latency_enabled = latency
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer
        self._handlers: Dict[str, Handler] = {}
        self._down_hosts: Dict[str, bool] = {}
        self._links: Dict[str, _PeerLink] = {}
        self._servers: List[asyncio.base_events.Server] = []
        #: Sites currently cut off by a live partition fault.
        self._blocked_sites: Set[str] = set()
        self._send_instruments: BoundedLru = BoundedLru(_INSTRUMENT_CAPACITY)
        self._recv_instruments: BoundedLru = BoundedLru(_INSTRUMENT_CAPACITY)
        self._drop_counters: BoundedLru = BoundedLru(_INSTRUMENT_CAPACITY)
        # Identity-keyed frame cache: a broadcast serializes its payload
        # into a wire frame once per (message, src) instead of once per
        # destination. Frames are pure functions of (src, message), so
        # per-destination bytes on the wire are unchanged.
        self.frame_cache_enabled = frame_cache_enabled
        self._frame_cache = FrameCache(
            frame_cache_capacity,
            hit_counter=self.metrics.counter("net.frame_cache_hit"),
            miss_counter=self.metrics.counter("net.frame_cache_miss"),
        )
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.inspector: Optional[Callable[[str, Any], None]] = None
        # Wire tracing (WatchLab): when enabled, every outbound frame is
        # upgraded to v2 with a (trace_id, parent_span, HLC) extension.
        # Receivers merge the HLC and measure per-site one-way delay; on
        # a shared-epoch localhost deployment the clocks agree, so the
        # measured delay is the emulated WAN latency itself.
        self.trace_wire = trace_wire
        self._now = now_fn if now_fn is not None else self.loop.time
        self.hlc = HybridLogicalClock(self._now)
        #: Last receive instant per peer host — transport-level liveness
        #: evidence consumed by the silent-replica detector.
        self.peer_seen: Dict[str, float] = {}
        self._link_delay_instruments: BoundedLru = BoundedLru(_INSTRUMENT_CAPACITY)
        self.metrics.register_gauge(
            "net.outbound_queue_depth",
            lambda: float(sum(len(l.queue) for l in self._links.values())),
        )

    # -- membership -------------------------------------------------------------

    def register(self, host: str, handler: Handler) -> None:
        if not self.topology.has_host(host):
            raise ConfigurationError(f"host {host!r} is not in the topology")
        if host not in self.host_ports:
            raise ConfigurationError(f"host {host!r} has no assigned port")
        self._handlers[host] = handler

    def set_host_down(self, host: str, down: bool) -> None:
        self._down_hosts[host] = down

    def host_is_down(self, host: str) -> bool:
        return self._down_hosts.get(host, False)

    # -- partitions (live fault injection) -------------------------------------

    def set_site_blocked(self, site: str, blocked: bool) -> None:
        """Install/lift a live partition: traffic to or from ``site``'s
        hosts is dropped at both endpoints, LAN traffic keeps flowing."""
        if blocked:
            self._blocked_sites.add(site)
        else:
            self._blocked_sites.discard(site)

    def _partitioned(self, src_site: str, dst_site: str) -> bool:
        if src_site == dst_site:
            return False
        return src_site in self._blocked_sites or dst_site in self._blocked_sites

    # -- serving ----------------------------------------------------------------

    async def start_serving(self) -> None:
        """Listen on the port of every locally registered host."""
        for host in sorted(self._handlers):
            server = await asyncio.start_server(
                self._make_reader(host), self.bind_host, self.host_ports[host]
            )
            self._servers.append(server)

    async def close(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for link in self._links.values():
            if link.writer is not None:
                link.writer.close()
        self._links.clear()

    def _make_reader(self, local_host: str):
        async def read_stream(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            decoder = FrameDecoder(include_context=True)
            try:
                while True:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    for src, message, ctx in decoder.feed(chunk):
                        self._deliver(src, local_host, message, ctx)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            except ProtocolError:  # corrupt frame: drop the connection
                self._count_drop("frame", "corrupt")
            finally:
                writer.close()

        return read_stream

    # -- metrics helpers ---------------------------------------------------------

    def _count_send(self, type_name: str, size: int) -> None:
        pair = self._send_instruments.get(type_name, None)
        if pair is None:
            pair = (
                self.metrics.counter("net.send", type=type_name),
                self.metrics.counter("net.send_bytes", type=type_name),
            )
            self._send_instruments.put(type_name, pair)
        pair[0].inc()
        pair[1].inc(size)

    def _count_recv(self, type_name: str, size: int) -> None:
        pair = self._recv_instruments.get(type_name, None)
        if pair is None:
            pair = (
                self.metrics.counter("net.recv", type=type_name),
                self.metrics.counter("net.recv_bytes", type=type_name),
            )
            self._recv_instruments.put(type_name, pair)
        pair[0].inc()
        pair[1].inc(size)

    def _count_drop(self, type_name: str, reason: str) -> None:
        key = (type_name, reason)
        counter = self._drop_counters.get(key, None)
        if counter is None:
            counter = self.metrics.counter("net.drop", type=type_name, reason=reason)
            self._drop_counters.put(key, counter)
        counter.inc()

    # -- sending -----------------------------------------------------------------

    def _frame_for(self, src: str, payload: Any) -> bytes:
        """The wire frame for (src, payload), encoded at most once per
        object while the cache entry lives."""
        if not self.frame_cache_enabled:
            return encode_frame(src, payload)
        return self._frame_cache.get_or_build(
            payload, lambda message: encode_frame(src, message), extra=src
        )

    def _trace_for(self, src: str, payload: Any) -> Optional[TraceContext]:
        """The context stamped onto this send, or None with tracing off.

        The trace id is derived from the update's (alias, client_seq)
        when the payload carries one; protocol messages without a span
        identity still get a context (id 0) so HLC propagation and the
        link-delay matrix cover every traced frame.
        """
        if not self.trace_wire:
            return None
        alias = getattr(payload, "alias", None)
        seq = getattr(payload, "client_seq", None)
        trace_id = (
            span_trace_id(alias, seq)
            if alias is not None and seq is not None
            else 0
        )
        stamp = self.hlc.tick()
        return TraceContext(trace_id, host_span_id(src), stamp.physical, stamp.logical)

    def send(self, src: str, dst: str, payload: Any, size: Optional[int] = None) -> bool:
        """Frame and ship one message; returns False on a known partition."""
        frame = self._frame_for(src, payload)
        return self._send_framed(src, dst, payload, frame)

    def _send_framed(self, src: str, dst: str, payload: Any, frame: bytes) -> bool:
        trace = self._trace_for(src, payload)
        if trace is not None:
            # Cached frames stay v1/extension-free; the per-send stamp is
            # prepended without re-encoding the message body.
            frame = extend_frame(frame, trace)
        self.messages_sent += 1
        self.bytes_sent += len(frame)
        type_name = type(payload).__name__
        self._count_send(type_name, len(frame))
        src_site = self.topology.site_of(src).name
        dst_site = self.topology.site_of(dst).name
        if self._partitioned(src_site, dst_site):
            self.messages_dropped += 1
            self._count_drop(type_name, "partitioned")
            return False
        delay = 0.0
        if self.latency_enabled:
            if src_site == dst_site:
                delay = self.topology.lan_latency
            else:
                route = self.overlay.path_latency(src_site, dst_site)
                if route is None:
                    self.messages_dropped += 1
                    self._count_drop(type_name, "no-route")
                    return False
                delay = route
        if delay > 0:
            self.loop.call_later(delay, self._write, dst, frame, type_name)
        else:
            self._write(dst, frame, type_name)
        return True

    def multicast(self, src: str, dsts: Iterable[str], payload: Any, size: Optional[int] = None) -> None:
        """Encode once, ship to every destination (excluding src)."""
        frame: Optional[bytes] = None
        for dst in dsts:
            if dst == src:
                continue
            if frame is None:
                frame = self._frame_for(src, payload)
            self._send_framed(src, dst, payload, frame)

    def _write(self, dst: str, frame: bytes, type_name: str) -> None:
        if dst in self._handlers:
            # Co-located host (a proxy and its client driver share a
            # process): skip the socket, deliver on the loop.
            decoder = FrameDecoder(include_context=True)
            for src, message, ctx in decoder.feed(frame):
                self.loop.call_soon(self._deliver, src, dst, message, ctx)
            return
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = _PeerLink()
        if link.writer is not None:
            # asyncio swallows writes on a dead transport, so probe
            # is_closing() — a peer that crashed (or was restarted by the
            # launcher) flips it once the RST lands, and we reconnect.
            if link.writer.transport.is_closing():
                link.writer = None
            else:
                try:
                    link.writer.write(frame)
                    return
                except (ConnectionError, RuntimeError):
                    link.writer = None
        link.queue.append(frame)
        if not link.connecting:
            link.connecting = True
            self.loop.create_task(self._connect_and_flush(dst, link, type_name))

    async def _connect_and_flush(self, dst: str, link: _PeerLink, type_name: str) -> None:
        try:
            port = self.host_ports.get(dst)
            if port is None:
                return
            for attempt in range(_CONNECT_ATTEMPTS):
                try:
                    _reader, writer = await asyncio.open_connection(self.bind_host, port)
                    link.writer = writer
                    break
                except OSError:
                    await asyncio.sleep(_CONNECT_BACKOFF * (attempt + 1))
            if link.writer is None:
                # Destination unreachable: silent loss, retransmission's job.
                self.messages_dropped += len(link.queue)
                self._count_drop(type_name, "unreachable")
                link.queue.clear()
                return
            queued, link.queue = link.queue, []
            for frame in queued:
                link.writer.write(frame)
            await link.writer.drain()
        finally:
            link.connecting = False

    # -- delivery -----------------------------------------------------------------

    def _observe_context(self, src: str, ctx: TraceContext) -> None:
        now = self._now()
        self.peer_seen[src] = now
        self.hlc.merge(HlcTimestamp(ctx.hlc_physical, ctx.hlc_logical))
        delay = now - ctx.hlc_physical
        if delay < 0:
            return  # clocks disagree more than the link delay; skip the sample
        src_site = self.topology.site_of(src).name
        histogram = self._link_delay_instruments.get(src_site, None)
        if histogram is None:
            histogram = self.metrics.histogram("watch.link_delay", src=src_site)
            self._link_delay_instruments.put(src_site, histogram)
        histogram.observe(delay)

    def _deliver(
        self, src: str, dst: str, message: Any, ctx: Optional[TraceContext] = None
    ) -> None:
        if ctx is not None:
            self._observe_context(src, ctx)
        if self._down_hosts.get(dst, False):
            self.messages_dropped += 1
            self._count_drop(type(message).__name__, "host-down")
            return
        src_site = self.topology.site_of(src).name
        dst_site = self.topology.site_of(dst).name
        if self._partitioned(src_site, dst_site):
            self.messages_dropped += 1
            self._count_drop(type(message).__name__, "partitioned")
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.messages_dropped += 1
            self._count_drop(type(message).__name__, "no-handler")
            return
        self.messages_delivered += 1
        self._count_recv(type(message).__name__, 0)
        if self.inspector is not None:
            self.inspector(dst, message)
        handler(src, message)
