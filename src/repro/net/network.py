"""Message transport: latency, bandwidth, queueing, jitter, drops.

This is the runtime counterpart of :mod:`repro.net.topology` (static
geography) and :mod:`repro.net.overlay` (routing/health). It delivers
payload objects between named hosts with:

- propagation delay from the overlay route (LAN latency inside a site),
- serialization delay and FIFO queueing on a per-directed-site-pair pipe,
  which is what makes post-reconnection state-transfer bursts congest the
  network and produce the 200-450 ms latency spikes of Figure 2,
- bounded random jitter (Prime assumes bounded latency variance; the
  default jitter respects that),
- silent drops when the overlay has no route (isolated site) or the
  destination host is down.

Payloads are the protocol's message objects, billed at the length of
their :mod:`repro.net.codec` encoding — the bytes the live transport
ships — unless the sender passes an explicit ``size``. A payload the
codec cannot encode and that carries no ``size`` raises ``ProtocolError``:
it could never go live.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.cache import BoundedLru, FrameCache
from repro.errors import ConfigurationError
from repro.net.codec import encoded_size
from repro.net.overlay import Overlay
from repro.net.topology import Topology
from repro.obs.registry import MetricsRegistry, NULL_METRICS
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

Handler = Callable[[str, Any], None]

# Instrument-handle maps are keyed by message type name (plus drop
# reason); the live set is small, the bound only guards FaultLab sweeps
# that register many dynamic types.
_INSTRUMENT_CAPACITY = 256
DEFAULT_WAN_BANDWIDTH = 100e6 / 8   # 100 Mbit/s in bytes/second
DEFAULT_LAN_BANDWIDTH = 1e9 / 8     # 1 Gbit/s in bytes/second


class Network:
    """Delivers messages between registered hosts over the overlay."""

    def __init__(
        self,
        kernel: Kernel,
        topology: Topology,
        overlay: Overlay,
        rng: RngRegistry,
        tracer: Optional[Tracer] = None,
        wan_bandwidth: float = DEFAULT_WAN_BANDWIDTH,
        lan_bandwidth: float = DEFAULT_LAN_BANDWIDTH,
        jitter_fraction: float = 0.05,
        wan_loss_probability: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        frame_cache_enabled: bool = True,
        frame_cache_capacity: int = 1024,
    ):
        self.kernel = kernel
        self.topology = topology
        self.overlay = overlay
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Per-message-type instrument handles, cached so the hot send path
        # pays one dict lookup instead of a registry lookup per message.
        # Bounded: the registry owns the counts; eviction only drops a
        # handle, which is re-fetched on the next use.
        self._send_instruments: BoundedLru = BoundedLru(_INSTRUMENT_CAPACITY)
        self._recv_instruments: BoundedLru = BoundedLru(_INSTRUMENT_CAPACITY)
        self._drop_counters: BoundedLru = BoundedLru(_INSTRUMENT_CAPACITY)
        # Identity-keyed size memo: a broadcast fan-out (or a retransmit
        # of the same stored message object) looks its encoded size up
        # once instead of once per destination. Sizes are a pure function
        # of the message, so traces are unchanged.
        self.frame_cache_enabled = frame_cache_enabled
        self._frame_cache = FrameCache(
            frame_cache_capacity,
            hit_counter=self.metrics.counter("net.frame_cache_hit"),
            miss_counter=self.metrics.counter("net.frame_cache_miss"),
        )
        self._rng = rng.stream("net.jitter")
        self._handlers: Dict[str, Handler] = {}
        self._down_hosts: Dict[str, bool] = {}
        self._pipe_free_at: Dict[Tuple[str, str], float] = {}
        self._wan_bandwidth = wan_bandwidth
        self._lan_bandwidth = lan_bandwidth
        self._jitter_fraction = jitter_fraction
        # Random per-message loss on inter-site links. The intrusion-
        # tolerant overlay absorbs most real loss via rerouting; residual
        # loss exercises the protocols' retransmission paths.
        self.wan_loss_probability = wan_loss_probability
        self._loss_rng = rng.stream("net.loss")
        # Partial-DoS state: per-site degradation (bandwidth divisor,
        # added one-way latency, extra loss probability). A weaker attack
        # than full isolation: traffic still flows, but slowly.
        self._degraded_sites: Dict[str, Tuple[float, float, float]] = {}
        # Clock-skew model: every delivery *into* a skewed site arrives
        # this many seconds late, as if the site's receive timestamps ran
        # behind. Prime assumes bounded latency variance; FaultLab uses
        # skew windows to probe that assumption.
        self._site_skew: Dict[str, float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        # Optional delivery inspector (the confidentiality auditor hooks
        # here): called as inspector(dst_host, payload) on every delivery.
        self.inspector: Optional[Callable[[str, Any], None]] = None

    # -- membership -------------------------------------------------------------

    def register(self, host: str, handler: Handler) -> None:
        """Attach the receive handler for ``host`` (must be in the topology)."""
        if not self.topology.has_host(host):
            raise ConfigurationError(f"host {host!r} is not in the topology")
        self._handlers[host] = handler

    def set_host_down(self, host: str, down: bool) -> None:
        """Mark a host crashed/recovering; messages to it are dropped."""
        self._down_hosts[host] = down

    def degrade_site(
        self,
        site: str,
        bandwidth_divisor: float = 10.0,
        added_latency: float = 0.020,
        loss_probability: float = 0.02,
    ) -> None:
        """Apply a partial DoS to every WAN flow touching ``site``."""
        self._degraded_sites[site] = (bandwidth_divisor, added_latency, loss_probability)

    def restore_site(self, site: str) -> None:
        """Lift a partial DoS installed by :meth:`degrade_site`."""
        self._degraded_sites.pop(site, None)

    def site_is_degraded(self, site: str) -> bool:
        return site in self._degraded_sites

    def set_delivery_skew(self, site: str, skew: float) -> None:
        """Delay every delivery into ``site`` by ``skew`` seconds."""
        if skew < 0:
            raise ConfigurationError(f"negative skew {skew!r}")
        self._site_skew[site] = skew
        if self.tracer:
            self.tracer.record("net.skew", site, skew=skew)

    def clear_delivery_skew(self, site: str) -> None:
        """Lift a delivery skew installed by :meth:`set_delivery_skew`."""
        self._site_skew.pop(site, None)
        if self.tracer:
            self.tracer.record("net.skew", site, skew=0.0)

    def delivery_skew(self, site: str) -> float:
        return self._site_skew.get(site, 0.0)

    def set_wan_loss(self, probability: float) -> None:
        """Set the residual WAN loss probability (message-loss windows)."""
        self.wan_loss_probability = probability
        if self.tracer:
            self.tracer.record("net.loss-window", "network", probability=probability)

    def host_is_down(self, host: str) -> bool:
        return self._down_hosts.get(host, False)

    # -- metrics helpers -------------------------------------------------------------

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

    def _cached_size(self, payload: Any) -> int:
        """``encoded_size`` memoized on payload identity (when enabled)."""
        if not self.frame_cache_enabled:
            return encoded_size(payload)
        return self._frame_cache.get_or_build(payload, encoded_size)

    # -- sending ------------------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size: Optional[int] = None) -> bool:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns True if the message was put on the wire (delivery may still
        be dropped if the destination goes down in flight); False if there
        was no route, so the caller can observe partitions if it wants to.
        Protocol code generally ignores the return value: BFT protocols
        must tolerate silent loss anyway.
        """
        self.messages_sent += 1
        size = size if size is not None else self._cached_size(payload)
        self.bytes_sent += size
        type_name = type(payload).__name__
        self._count_send(type_name, size)
        src_site = self.topology.site_of(src).name
        dst_site = self.topology.site_of(dst).name

        if src_site == dst_site:
            if self.overlay.is_isolated(src_site):
                # Intra-site traffic still flows during an external DoS: the
                # attack saturates the site's uplinks, not its LAN.
                pass
            latency = self.topology.lan_latency
            bandwidth = self._lan_bandwidth
        else:
            route = self.overlay.path_latency(src_site, dst_site)
            if route is None:
                self.messages_dropped += 1
                self._count_drop(type_name, "no-route")
                if self.tracer:
                    self.tracer.record(
                        "net.drop", src, dst=dst, reason="no-route", size=size
                    )
                return False
            latency = route
            bandwidth = self._wan_bandwidth
            loss = self.wan_loss_probability
            for site in (src_site, dst_site):
                degradation = self._degraded_sites.get(site)
                if degradation is not None:
                    divisor, extra_latency, extra_loss = degradation
                    bandwidth = bandwidth / divisor
                    latency += extra_latency
                    loss += extra_loss
            if loss > 0.0 and self._loss_rng.random() < loss:
                self.messages_dropped += 1
                self._count_drop(type_name, "loss")
                if self.tracer:
                    self.tracer.record(
                        "net.drop", src, dst=dst, reason="loss", size=size
                    )
                return False

        tx_time = size / bandwidth
        pipe = (src_site, dst_site)
        now = self.kernel.now
        start = max(now, self._pipe_free_at.get(pipe, 0.0))
        self._pipe_free_at[pipe] = start + tx_time
        jitter = self._rng.uniform(0, self._jitter_fraction * latency)
        arrival = start + tx_time + latency + jitter + self._site_skew.get(dst_site, 0.0)
        self.kernel.call_at(arrival, self._deliver, src, dst, payload, size)
        return True

    def multicast(self, src: str, dsts, payload: Any, size: Optional[int] = None) -> None:
        """Send the same payload to every host in ``dsts`` (excluding src).

        The payload's size is looked up once for the whole fan-out (it is
        a pure function of the immutable message, so per-destination
        behavior is byte-identical to computing it per send).
        """
        if size is None and self.frame_cache_enabled:
            size = self._cached_size(payload)
        for dst in dsts:
            if dst != src:
                self.send(src, dst, payload, size=size)

    # -- delivery -------------------------------------------------------------------

    def _deliver(self, src: str, dst: str, payload: Any, size: int) -> None:
        if self._down_hosts.get(dst, False):
            self.messages_dropped += 1
            self._count_drop(type(payload).__name__, "host-down")
            if self.tracer:
                self.tracer.record("net.drop", src, dst=dst, reason="host-down", size=size)
            return
        # Re-check reachability at arrival time: a partition that started
        # while the message was in flight kills it (DoS saturates the last
        # hop too).
        src_site = self.topology.site_of(src).name
        dst_site = self.topology.site_of(dst).name
        if src_site != dst_site and self.overlay.path_latency(src_site, dst_site) is None:
            self.messages_dropped += 1
            self._count_drop(type(payload).__name__, "partitioned")
            if self.tracer:
                self.tracer.record("net.drop", src, dst=dst, reason="partitioned", size=size)
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.messages_dropped += 1
            self._count_drop(type(payload).__name__, "no-handler")
            return
        self.messages_delivered += 1
        self._count_recv(type(payload).__name__, size)
        if self.inspector is not None:
            self.inspector(dst, payload)
        handler(src, payload)

