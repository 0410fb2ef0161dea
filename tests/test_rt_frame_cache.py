"""Live-transport frame cache smoke: encode-once must be invisible.

Runs a LiveTransport entirely in-process (co-located hosts skip the
socket layer) and compares a broadcast-heavy exchange with the frame
cache on and off: the bytes sent, the delivered messages, and the
per-type ``net.send_bytes`` counters must be identical — only the
hit/miss counters may differ.
"""

import asyncio

import pytest

from repro.core.messages import EncryptedUpdate
from repro.net.topology import SiteKind, Topology
from repro.obs.registry import MetricsRegistry
from repro.rt.transport import LiveTransport
from repro.rt.wire import WIRE_MAGIC


def _topology() -> Topology:
    topology = Topology()
    topology.add_site("cc-a", SiteKind.ON_PREMISES)
    topology.add_site("dc-1", SiteKind.DATA_CENTER)
    for host in ("cc-a-r0", "cc-a-r1", "cc-a-r2"):
        topology.add_host(host, "cc-a")
    topology.add_host("dc-1-r0", "dc-1")
    topology.add_link("cc-a", "dc-1", 0.01)
    return topology


def _messages(count: int):
    return [
        EncryptedUpdate(
            alias="ab" * 8,
            client_seq=i + 1,
            ciphertext=bytes((i + j) % 256 for j in range(96)),
            threshold_sig=b"\x05" * 48,
        )
        for i in range(count)
    ]


def _broadcast_exchange(frame_cache_enabled: bool):
    """Multicast a burst from every host to every other host, all hosts
    co-located in this process, and report what moved."""
    loop = asyncio.new_event_loop()
    try:
        topology = _topology()
        hosts = sorted(host for site in topology.sites for host in site.hosts)
        metrics = MetricsRegistry()
        transport = LiveTransport(
            topology,
            {host: 0 for host in hosts},
            latency=False,
            loop=loop,
            metrics=metrics,
            frame_cache_enabled=frame_cache_enabled,
        )
        delivered = {host: [] for host in hosts}
        for host in hosts:
            transport.register(
                host,
                lambda src, message, _host=host: delivered[_host].append(
                    (src, message)
                ),
            )
        for src in hosts:
            for message in _messages(10):
                transport.multicast(src, hosts, message)
                # A retransmit of the same object: the cached arm serves
                # the frame built during the multicast.
                retry_dst = next(h for h in hosts if h != src)
                transport.send(src, retry_dst, message)
        loop.run_until_complete(asyncio.sleep(0.05))
        counters = {
            key: value
            for key, value in metrics.counter_values().items()
            if key[0] in ("net.send", "net.send_bytes", "net.recv")
        }
        return {
            "bytes_sent": transport.bytes_sent,
            "messages_sent": transport.messages_sent,
            "messages_delivered": transport.messages_delivered,
            "delivered": delivered,
            "counters": counters,
            "frame_cache_hits": sum(
                value
                for key, value in metrics.counter_values().items()
                if key[0] == "net.frame_cache_hit"
            ),
        }
    finally:
        loop.close()


def test_frame_cache_does_not_change_bytes_on_the_wire():
    cached = _broadcast_exchange(frame_cache_enabled=True)
    fresh = _broadcast_exchange(frame_cache_enabled=False)

    assert cached["bytes_sent"] == fresh["bytes_sent"]
    assert cached["messages_sent"] == fresh["messages_sent"]
    assert cached["messages_delivered"] == fresh["messages_delivered"]
    assert cached["counters"] == fresh["counters"]
    assert cached["delivered"] == fresh["delivered"]
    # Every retransmit serves its frame from the cache built during the
    # multicast; the disabled arm encodes fresh and never hits.
    assert cached["frame_cache_hits"] > 0
    assert fresh["frame_cache_hits"] == 0


def test_multicast_skips_self_and_delivers_to_all_peers():
    result = _broadcast_exchange(frame_cache_enabled=True)
    hosts = sorted(result["delivered"])
    for host, received in result["delivered"].items():
        senders = {src for src, _message in received}
        assert host not in senders
        assert senders == set(hosts) - {host}


def test_corrupt_frame_drops_the_connection_and_is_counted():
    """A frame whose message body the codec rejects closes the inbound
    connection and shows up as net.drop{type=frame, reason=corrupt}."""

    class Writer:
        closed = False

        def close(self):
            self.closed = True

    loop = asyncio.new_event_loop()
    try:
        metrics = MetricsRegistry()
        transport = LiveTransport(
            _topology(), {"dc-1-r0": 0}, latency=False, loop=loop, metrics=metrics
        )
        transport.register("dc-1-r0", lambda src, message: None)
        # src "a", then a PoAck (tag 2) whose origin is not valid UTF-8.
        body = bytes([1, ord("a"), 2, 2, 0xFF, 0xFE, 1, 0])
        writer = Writer()

        async def serve_one_connection():
            reader = asyncio.StreamReader()
            reader.feed_data(WIRE_MAGIC + bytes([1, 0]) + len(body).to_bytes(4, "big") + body)
            reader.feed_eof()
            await transport._make_reader("dc-1-r0")(reader, writer)

        loop.run_until_complete(serve_one_connection())
        assert writer.closed
        assert metrics.counter_values()[("net.drop", (("reason", "corrupt"), ("type", "frame")))] == 1
    finally:
        loop.close()
