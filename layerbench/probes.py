"""Probes: timed calls into each layer's public functions.

A probe answers "what does one call into this layer cost on this box",
independent of any workload, so a per-layer number can be set against the
per-update call counts the workloads report. Inputs are real: key
material from ``generate_material`` at the f=1 group sizes, and a message
corpus captured at ``Network.send`` / ``MemoryStore.append`` during a
short seeded ``sim_steady`` pass (the first :data:`CORPUS_PER_TYPE`
distinct payloads of each type, weighted by how often each was sent).

Every probe reports the median over :data:`REPEATS` batches of a fixed
number of calls; ``scale`` shrinks the batches for ``--smoke``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.crypto import symmetric
from repro.crypto.merkle import merkle_root
from repro.crypto.threshold import combine_with_retry, verify_partial
from repro.net.codec import decode_message, encode_message
from repro.net.network import Network
from repro.net.overlay import Overlay
from repro.rt.bootstrap import generate_material
from repro.rt.transport import LiveTransport
from repro.rt.wire import FrameDecoder, encode_frame
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.store.filestore import FileStore
from repro.store.memory import MemoryStore
from repro.system import build

from layerbench import simwork
from layerbench.livework import free_port_block

REPEATS = 5
CORPUS_PER_TYPE = 200
CORPUS_VIRTUAL_S = 8.0
PAYLOAD_BYTES = 128
STORE_RECORDS = 2000
PROBE_BASE_PORT = 25000


def per_call(fn: Callable[[int], None], calls: int) -> float:
    """Median seconds per call over REPEATS batches of ``calls`` calls.

    ``fn(i)`` gets a call index that never repeats across batches, so a
    probe can hand the layer a fresh input every time: several crypto
    functions memoize on their arguments, and a repeated input would time
    the memo, not the operation.
    """
    times = []
    for batch in range(REPEATS):
        started = time.perf_counter()
        for i in range(batch * calls, (batch + 1) * calls):
            fn(i)
        times.append((time.perf_counter() - started) / calls)
    return statistics.median(times)


# -- corpus -----------------------------------------------------------------------


@dataclasses.dataclass
class Corpus:
    #: (payload, times sent), at most CORPUS_PER_TYPE distinct per type.
    messages: List[Tuple[object, int]]
    records: List[object]

    def weighted_mean(self, value_of: Callable[[object], float]) -> float:
        total = sum(weight for _m, weight in self.messages)
        return sum(value_of(m) * weight for m, weight in self.messages) / total

    def sample(self, seed: int, k: int) -> List[object]:
        payloads = [m for m, _w in self.messages]
        weights = [w for _m, w in self.messages]
        return random.Random(seed).choices(payloads, weights, k=k)


def capture_corpus(seed: int) -> Corpus:
    """Run ``sim_steady`` briefly with taps on the network and the store."""
    seen: Dict[str, Dict[int, List]] = {}
    records: List[object] = []
    send, append = Network.send, MemoryStore.append

    def tapped_send(self, src, dst, payload, size=None):
        of_type = seen.setdefault(type(payload).__name__, {})
        entry = of_type.get(id(payload))
        if entry is not None:
            entry[1] += 1
        elif len(of_type) < CORPUS_PER_TYPE:
            # The entry keeps the payload alive, so its id stays unique.
            of_type[id(payload)] = [payload, 1]
        return send(self, src, dst, payload, size)

    def tapped_append(self, record):
        records.append(record)
        return append(self, record)

    Network.send, MemoryStore.append = tapped_send, tapped_append
    try:
        deployment = build(simwork.config_for("sim_steady", seed, tracing=False))
        deployment.start()
        deployment.start_workload(duration=CORPUS_VIRTUAL_S, interval=1.0)
        deployment.run(until=CORPUS_VIRTUAL_S + 2.0)
        deployment.shutdown()
    finally:
        Network.send, MemoryStore.append = send, append
    messages = [
        (payload, count)
        for name in sorted(seen)
        for payload, count in seen[name].values()
    ]
    if not messages or not records:
        raise RuntimeError("corpus capture saw no traffic")
    return Corpus(messages=messages, records=records)


# -- the probes -------------------------------------------------------------------


def crypto_probes(material, seed: int, scale: float) -> Dict[str, float]:
    group = material.response_group
    public, shares = group.public, group.shares
    rng = random.Random(seed)
    n = max(2, int(10 * scale))
    messages = [rng.randbytes(PAYLOAD_BYTES) for _ in range(n * REPEATS)]
    proved = [shares[1].sign_partial_with_proof(m) for m in messages]
    partials = [
        [shares[i].sign_partial(m) for i in range(1, public.threshold + 1)] for m in messages
    ]
    signatures = [combine_with_retry(public, m, p) for m, p in zip(messages, partials)]
    client = material.client_keys[material.client_ids[0]]
    rsa_signatures = [client.sign(m) for m in messages]
    keys = next(iter(material.initial_client_keys.values()))
    blobs = [symmetric.encrypt(keys, m) for m in messages]
    leaves = [rng.randbytes(32) for _ in range(8)]

    return {
        "probe.crypto.threshold.partial_ms":
            per_call(lambda i: shares[1].sign_partial(messages[i]), n) * 1e3,
        "probe.crypto.threshold.verify_partial_ms":
            per_call(lambda i: verify_partial(public, messages[i], proved[i]), n) * 1e3,
        "probe.crypto.threshold.combine_ms":
            per_call(lambda i: combine_with_retry(public, messages[i], partials[i]), n) * 1e3,
        "probe.crypto.threshold.verify_ms":
            per_call(lambda i: public.verify(messages[i], signatures[i]), n) * 1e3,
        "probe.crypto.rsa.sign_ms": per_call(lambda i: client.sign(messages[i]), n) * 1e3,
        "probe.crypto.rsa.verify_ms":
            per_call(lambda i: client.public.verify(messages[i], rsa_signatures[i]), n) * 1e3,
        "probe.crypto.symmetric.encrypt_us":
            per_call(lambda i: symmetric.encrypt(keys, messages[i]), n) * 1e6,
        "probe.crypto.symmetric.decrypt_us":
            per_call(lambda i: symmetric.decrypt(keys, blobs[i]), n) * 1e6,
        "probe.crypto.merkle.root8_us":
            per_call(lambda i: merkle_root(leaves), max(2, int(200 * scale))) * 1e6,
    }


def codec_and_wire_probes(corpus: Corpus, seed: int, scale: float) -> Dict[str, float]:
    def encode_seconds(message) -> float:
        return per_call(lambda i: encode_message(message), 2)

    def decode_seconds(message) -> float:
        data = encode_message(message)
        return per_call(lambda i: decode_message(data), 2)

    def frame_seconds(message) -> float:
        return per_call(lambda i: encode_frame("cc-a-r0", message), 2)

    frames = [encode_frame("cc-a-r0", m) for m in corpus.sample(seed, max(64, int(640 * scale)))]
    chunks = [b"".join(frames[i:i + 64]) for i in range(0, len(frames), 64)]

    def feed(pieces: List[bytes]) -> float:
        def one_pass(_i):
            decoder = FrameDecoder(include_context=True)
            for piece in pieces:
                decoder.feed(piece)
        return per_call(one_pass, 1) / len(frames)

    return {
        "probe.codec.encode_us": corpus.weighted_mean(encode_seconds) * 1e6,
        "probe.codec.decode_us": corpus.weighted_mean(decode_seconds) * 1e6,
        "probe.codec.bytes_per_msg": corpus.weighted_mean(lambda m: len(encode_message(m))),
        "probe.wire.encode_frame_us": corpus.weighted_mean(frame_seconds) * 1e6,
        "probe.wire.feed_us_per_frame.1": feed(frames) * 1e6,
        "probe.wire.feed_us_per_frame.64": feed(chunks) * 1e6,
    }


def transport_probes(material, corpus: Corpus, seed: int, scale: float) -> Dict[str, float]:
    """One hop, and one 13-way multicast, between LiveTransport endpoints
    sharing one event loop, with no injected latency."""
    hosts = list(material.all_hosts)
    base_port = free_port_block(PROBE_BASE_PORT)
    ports = {host: base_port + i for i, host in enumerate(hosts)}
    messages = corpus.sample(seed + 1, max(20, int(200 * scale)))

    async def measure(receivers: int) -> float:
        loop = asyncio.get_running_loop()
        delivered = 0
        done = asyncio.Event()
        expected = len(messages) * receivers

        def handler(_src, _message):
            nonlocal delivered
            delivered += 1
            if delivered == expected:
                done.set()

        endpoints = []
        try:
            for host in hosts[: receivers + 1]:
                endpoint = LiveTransport(material.topology, ports, latency=False, loop=loop)
                endpoint.register(host, handler)
                await endpoint.start_serving()
                endpoints.append(endpoint)
            sender, src, dsts = endpoints[0], hosts[0], hosts[1 : receivers + 1]
            # One warm-up round opens the connections.
            expected += receivers
            sender.multicast(src, dsts, messages[0])
            await asyncio.sleep(0.2)
            started = time.perf_counter()
            for message in messages:
                sender.multicast(src, dsts, message)
            await asyncio.wait_for(done.wait(), timeout=30.0)
            return (time.perf_counter() - started) / len(messages)
        finally:
            for endpoint in endpoints:
                await endpoint.close()
            # Let the receivers' reader tasks see EOF and finish on their
            # own; otherwise closing the loop cancels them noisily.
            await asyncio.sleep(0.05)

    return {
        "probe.transport.hop_us": asyncio.run(measure(1)) * 1e6,
        "probe.transport.multicast13_us": asyncio.run(measure(13)) * 1e6,
    }


def store_probes(corpus: Corpus, work_dir: Path, scale: float) -> Dict[str, float]:
    count = max(20, int(STORE_RECORDS * scale))
    records = [
        dataclasses.replace(corpus.records[i % len(corpus.records)], batch_seq=i + 1)
        for i in range(count)
    ]
    out = {}
    roots = {"batch": work_dir / "probe-store-batch", "always": work_dir / "probe-store-always"}
    try:
        for policy, root in roots.items():
            # fsync-per-append is ~1000x slower; a tenth of the records is plenty.
            batch = records if policy == "batch" else records[: max(20, count // 10)]
            store = FileStore(root, fsync=policy)
            started = time.perf_counter()
            for record in batch:
                store.append(record)
            store.sync()
            out[f"probe.store.append_us.{policy}"] = (
                (time.perf_counter() - started) / len(batch) * 1e6)
            store.close()
        store = FileStore(roots["batch"], fsync="batch")
        started = time.perf_counter()
        loaded = store.load()
        elapsed = time.perf_counter() - started
        store.close()
        if len(loaded.records) != count:
            raise RuntimeError(f"store probe wrote {count} records, read {len(loaded.records)}")
        out["probe.store.load_records_per_s"] = count / elapsed
    finally:
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)
    return out


def sim_probes(material, corpus: Corpus, seed: int, scale: float) -> Dict[str, float]:
    events = max(1000, int(50_000 * scale))

    def kernel_pass(_i):
        kernel = Kernel()
        for k in range(events):
            kernel.call_later(k * 1e-6, int)
        kernel.run()

    messages = corpus.sample(seed + 2, max(200, int(5000 * scale)))
    src, dst = material.all_hosts[0], material.all_hosts[-1]

    def network_pass(_i):
        kernel = Kernel()
        network = Network(kernel, material.topology, Overlay(material.topology),
                          RngRegistry(seed))
        network.register(dst, lambda _src, _message: None)
        for message in messages:
            network.send(src, dst, message)
        kernel.run()
        if network.messages_delivered != len(messages):
            raise RuntimeError("network probe lost messages")

    return {
        "probe.sim.kernel.event_us": per_call(kernel_pass, 1) / events * 1e6,
        "probe.net.network.send_deliver_us": per_call(network_pass, 1) / len(messages) * 1e6,
    }


def run_all(seed: int, work_dir: Path, scale: float = 1.0) -> Dict[str, float]:
    """Every ``probe.*`` metric."""
    corpus = capture_corpus(seed)
    material = generate_material(
        simwork.config_for("sim_steady", seed, tracing=False), RngRegistry(seed))
    out = crypto_probes(material, seed, scale)
    out.update(codec_and_wire_probes(corpus, seed, scale))
    out.update(transport_probes(material, corpus, seed, scale))
    out.update(store_probes(corpus, work_dir, scale))
    out.update(sim_probes(material, corpus, seed, scale))
    return out
