"""Shared fixtures and harnesses for the test suite.

Deployment fixtures are session-scoped where the test only *reads* the
result of a run; tests that mutate a deployment (attacks, recoveries)
build their own.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Dict, List

import pytest
from hypothesis import settings

from repro.prime import OpaqueUpdate, PrimeConfig, PrimeReplica
from repro.sim import Kernel, RngRegistry, Tracer
from repro.system import Mode, SystemConfig, build

# Tier-1 is the same test on every run, so a red run reproduces from its
# log. CI's one exploratory step sets HYPOTHESIS_PROFILE=explore and passes
# --hypothesis-seed (printed in the step) to draw fresh examples.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


class PrimeHarness:
    """Wires a set of Prime engines over a uniform-latency toy network.

    Used by the Prime protocol tests: no CP-ITM, no crypto, no topology —
    just the agreement engine and a configurable link latency, with
    optional per-link partitions.
    """

    def __init__(self, n_replicas: int, f: int, k: int, latency: float = 0.005, seed: int = 1):
        self.kernel = Kernel()
        self.rng = RngRegistry(seed)
        self.tracer = Tracer(self.kernel)
        self.ids = tuple(f"r{i}" for i in range(n_replicas))
        self.config = PrimeConfig(replica_ids=self.ids, f=f, k=k)
        self.latency = latency
        self.delivered: Dict[str, List] = {rid: [] for rid in self.ids}
        self.lagging_reports: Dict[str, List[int]] = {rid: [] for rid in self.ids}
        self.blocked = set()  # (src, dst) pairs whose messages drop
        self._jitter = self.rng.stream("harness.jitter")
        self.engines: Dict[str, PrimeReplica] = {}
        for rid in self.ids:
            self.engines[rid] = PrimeReplica(
                kernel=self.kernel,
                config=self.config,
                replica_id=rid,
                send=self._make_send(rid),
                multicast=self._make_multicast(rid),
                deliver=self._make_deliver(rid),
                on_lagging=self.lagging_reports[rid].append,
                tracer=self.tracer,
            )

    def _make_send(self, src):
        def send(dst, message):
            if (src, dst) in self.blocked:
                return
            delay = self.latency + self._jitter.uniform(0, self.latency * 0.05)
            self.kernel.call_later(delay, self._deliver_msg, src, dst, message)

        return send

    def _deliver_msg(self, src, dst, message):
        if (src, dst) in self.blocked:
            return
        self.engines[dst].handle(src, message)

    def _make_multicast(self, src):
        def multicast(message):
            for dst in self.ids:
                if dst != src:
                    self._make_send(src)(dst, message)

        return multicast

    def _make_deliver(self, rid):
        def deliver(entries, batch_seq):
            for ordinal, origin, po_seq, update in entries:
                self.delivered[rid].append((ordinal, update.payload))

        return deliver

    def start(self) -> None:
        for rid in self.ids:
            self.engines[rid].start()

    def isolate(self, rid: str) -> None:
        """Cut every link to and from ``rid``."""
        for other in self.ids:
            if other != rid:
                self.blocked.add((rid, other))
                self.blocked.add((other, rid))

    def reconnect(self, rid: str) -> None:
        self.blocked = {
            (a, b) for (a, b) in self.blocked if a != rid and b != rid
        }

    def inject(self, rid: str, payload: bytes) -> None:
        digest = hashlib.sha256(payload).digest()
        self.engines[rid].inject(
            OpaqueUpdate(digest=digest, payload=payload, size=64 + len(payload))
        )

    def run(self, until: float) -> None:
        self.kernel.run(until=until)


@pytest.fixture
def prime_harness():
    """Fresh 6-replica (f=1, k=1) Prime harness."""
    return PrimeHarness(n_replicas=6, f=1, k=1)


@pytest.fixture(scope="session")
def conf_run():
    """A completed Confidential Spire f=1 run (read-only for tests)."""
    config = SystemConfig(
        mode=Mode.CONFIDENTIAL, f=1, num_clients=4, seed=21, checkpoint_interval=30
    )
    deployment = build(config)
    deployment.start()
    deployment.start_workload(duration=15.0)
    deployment.run(until=18.0)
    return deployment


@pytest.fixture(scope="session")
def spire_run():
    """A completed Spire 1.2 baseline f=1 run (read-only for tests)."""
    config = SystemConfig(mode=Mode.SPIRE, f=1, num_clients=4, seed=21)
    deployment = build(config)
    deployment.start()
    deployment.start_workload(duration=15.0)
    deployment.run(until=18.0)
    return deployment


@pytest.fixture
def fresh_conf():
    """A started (but not yet run) Confidential Spire f=1 deployment."""
    config = SystemConfig(
        mode=Mode.CONFIDENTIAL, f=1, num_clients=3, seed=33, checkpoint_interval=25
    )
    deployment = build(config)
    deployment.start()
    return deployment


@pytest.fixture(scope="session")
def threshold_group():
    """A (2, 7) threshold key, shared across crypto tests."""
    from repro.crypto.threshold import generate_threshold_key

    return generate_threshold_key(384, 2, 7, random.Random(42))


@pytest.fixture(scope="session")
def rsa_keypair():
    from repro.crypto.rsa import generate_keypair

    return generate_keypair(512, random.Random(7))
