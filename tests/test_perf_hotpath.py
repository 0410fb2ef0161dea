"""PerfLab correctness: the caches are invisible except in wall-clock.

Three families of guarantees:

- **encode-once**: cached bytes are the exact bytes a fresh encode
  produces, for every registered message type and for generated inputs;
- **one size model**: the simulated network bills every registered
  message exactly the bytes the codec ships (docs/PERFORMANCE.md);
- **trace identity**: a seeded f=1 deployment produces byte-identical
  traces and latency records with every hot-path cache on or off.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import EncryptedUpdate
from repro.net import Network, Overlay, codec, east_coast_topology
from repro.net.topology import CONTROL_CENTER_A, CONTROL_CENTER_B
from repro.net.codec import encode_message, encoded_size, registered_types
from repro.prime.messages import OpaqueUpdate, PoRequest
from repro.sim import Kernel, RngRegistry

from tests.test_net_codec import CPITM_MESSAGES, PRIME_MESSAGES, SAMPLE_IDS

ALL_SAMPLES = PRIME_MESSAGES + CPITM_MESSAGES


@pytest.fixture(autouse=True)
def _fresh_payload_cache():
    """Each test starts with an empty payload cache and the default
    (enabled) setting restored afterwards."""
    previous = codec.set_payload_cache_enabled(True)
    codec.clear_payload_cache()
    yield
    codec.set_payload_cache_enabled(previous)


# -- encode-once ---------------------------------------------------------------


@pytest.mark.parametrize("message", ALL_SAMPLES, ids=SAMPLE_IDS)
def test_cached_bytes_equal_fresh_bytes(message):
    fresh = encode_message(message)
    assert codec.encode_message_cached(message) == fresh
    # Second read must serve the identical object from the cache.
    assert codec.encode_message_cached(message) == fresh


def test_samples_cover_every_registered_type():
    covered = {type(m) for m in ALL_SAMPLES}
    assert set(registered_types()) <= covered


def test_encoded_size_matches_encoding(snapshot=None):
    for message in ALL_SAMPLES:
        assert encoded_size(message) == len(encode_message(message))


def test_cache_disabled_still_exact():
    codec.set_payload_cache_enabled(False)
    for message in ALL_SAMPLES[:5]:
        assert codec.encode_message_cached(message) == encode_message(message)
    assert codec.payload_cache_len() == 0


@given(
    alias=st.text(min_size=1, max_size=16).filter(lambda s: s.isprintable()),
    seq=st.integers(1, 10 ** 9),
    ciphertext=st.binary(min_size=1, max_size=400),
    sig=st.binary(max_size=64),
)
@settings(max_examples=50, deadline=None)
def test_cached_bytes_equal_fresh_bytes_property(alias, seq, ciphertext, sig):
    update = EncryptedUpdate(
        alias=alias, client_seq=seq, ciphertext=ciphertext, threshold_sig=sig
    )
    opaque = OpaqueUpdate(digest=b"\x01" * 32, payload=update, size=encoded_size(update))
    request = PoRequest(origin="r0#0", seq=seq, update=opaque)
    for message in (update, request):
        assert codec.encode_message_cached(message) == encode_message(message)


def test_opaque_update_carries_preencoded_payload():
    """Decoding fills ``OpaqueUpdate.encoded``; re-encoding reuses those
    bytes instead of re-serializing the nested update."""
    update = EncryptedUpdate(
        alias="abcd" * 4, client_seq=3, ciphertext=b"\x07" * 96, threshold_sig=b"\x08" * 48
    )
    opaque = OpaqueUpdate(digest=b"\x02" * 32, payload=update, size=encoded_size(update))
    request = PoRequest(origin="r0#0", seq=3, update=opaque)
    wire = encode_message(request)
    decoded, _ = codec.decode_message(wire)
    assert decoded == request
    assert decoded.update.encoded == encode_message(update)
    assert encode_message(decoded) == wire
    # encoded is a transport detail: it never participates in equality.
    assert opaque.encoded is None and decoded.update == opaque


# -- one size model ---------------------------------------------------------------


@pytest.mark.parametrize("message", ALL_SAMPLES, ids=SAMPLE_IDS)
def test_wire_size_within_documented_band(message):
    """The documented band is the point 1.0: what the sim's network bills
    for a message is the length of its codec encoding, for every
    registered type (the name predates the single size model)."""
    kernel = Kernel()
    topology = east_coast_topology(2)
    topology.add_host("a", CONTROL_CENTER_A)
    topology.add_host("b", CONTROL_CENTER_B)
    network = Network(kernel, topology, Overlay(topology), RngRegistry(1))
    network.send("a", "b", message)
    assert network.bytes_sent == len(encode_message(message))


# -- trace identity --------------------------------------------------------------


def _traced_run(optimized: bool):
    from repro.crypto import symmetric, threshold
    from repro.system import SystemConfig, build

    prev_codec = codec.set_payload_cache_enabled(optimized)
    prev_fdh = threshold.set_hash_cache_enabled(optimized)
    prev_share = threshold.set_share_verify_cache_enabled(optimized)
    prev_cipher = symmetric.set_cipher_cache_enabled(optimized)
    try:
        config = SystemConfig(
            seed=19,
            f=1,
            num_clients=3,
            update_interval=0.4,
            frame_cache_enabled=optimized,
            verify_cache_enabled=optimized,
        )
        deployment = build(config)
        deployment.start()
        deployment.start_workload(duration=4.0)
        deployment.run(until=6.0)
        events = [repr(event) for event in deployment.tracer.events]
        latencies = sorted(
            (cid, tuple(proxy.latencies()))
            for cid, proxy in deployment.proxies.items()
        )
        completed = sum(len(pairs) for _cid, pairs in latencies)
        return events, latencies, completed
    finally:
        codec.set_payload_cache_enabled(prev_codec)
        threshold.set_hash_cache_enabled(prev_fdh)
        threshold.set_share_verify_cache_enabled(prev_share)
        symmetric.set_cipher_cache_enabled(prev_cipher)


def test_sim_traces_byte_identical_with_caches_on_or_off():
    """The tentpole's safety contract: every hot-path cache together must
    not change one traced event or one simulated latency."""
    events_off, latencies_off, completed_off = _traced_run(optimized=False)
    events_on, latencies_on, completed_on = _traced_run(optimized=True)
    assert completed_off > 0, "workload did not complete any updates"
    assert completed_on == completed_off
    assert latencies_on == latencies_off
    assert events_on == events_off


# -- regression guard unit tests -------------------------------------------------


def _result_doc(encode_speedup, sim_speedups):
    return {
        "encode": {"speedup": encode_speedup},
        "sim": [
            {"clients": clients, "speedup": speedup}
            for clients, speedup in sim_speedups.items()
        ],
    }


def test_compare_results_passes_identical_docs():
    from repro.perf import compare_results

    doc = _result_doc(3.0, {10: 1.4, 40: 1.5})
    assert compare_results(doc, doc) == []


def test_compare_results_flags_encode_regression():
    from repro.perf import compare_results

    baseline = _result_doc(3.0, {10: 1.4})
    current = _result_doc(1.2, {10: 1.4})
    failures = compare_results(current, baseline)
    assert len(failures) == 1 and "encode" in failures[0]


def test_compare_results_flags_sim_regression():
    from repro.perf import compare_results

    baseline = _result_doc(3.0, {40: 1.5})
    current = _result_doc(3.0, {40: 0.4})
    failures = compare_results(current, baseline)
    assert len(failures) == 1 and "40 clients" in failures[0]


def test_compare_results_ignores_unknown_scenarios():
    from repro.perf import compare_results

    baseline = _result_doc(3.0, {10: 1.4})
    current = _result_doc(3.0, {10: 1.4, 99: 0.1})
    assert compare_results(current, baseline) == []
