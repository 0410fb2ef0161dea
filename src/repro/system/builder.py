"""Deployment builder: assembles a full Spire / Confidential Spire system.

Given a :class:`SystemConfig`, :func:`build` constructs the entire
simulated world — kernel, topology, overlay, network, attack controller,
cryptographic material (threshold groups, client keys, hardware
keystores), replicas in their roles, client proxies, and metrics — and
returns a :class:`Deployment` handle for tests, examples, and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.app import Application, KeyValueApplication
from repro.core.confidentiality import Auditor
from repro.core.distribution import DistributionPlan
from repro.core.proxy import ClientProxy
from repro.core.executing import ExecutingReplica
from repro.core.replica import ReplicaBase, ReplicaEnv, StorageReplica
from repro.net.attacks import AttackController
from repro.net.network import Network
from repro.obs import NULL_METRICS, MetricsRegistry, SpanTracker
from repro.net.overlay import Overlay
from repro.net.topology import Topology
from repro.sim.kernel import Kernel
from repro.sim.process import Process, Timeout, spawn
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.system.assembly import build_env, build_proxy, build_replica, generate_material
from repro.system.config import SystemConfig
from repro.system.metrics import LatencyRecorder
from repro.system.recovery import RecoveryOrchestrator

BodyFn = Callable[[str, int], bytes]


@dataclass
class GroupContext:
    """Shared-world parameters for building one group of a sharded deployment.

    ShardLab (``repro.shard``) builds S independent replica groups that share
    one kernel, one tracer, and one metrics registry; each group gets its own
    RNG registry, topology, and network. Passing a ``GroupContext`` to
    :func:`build` switches it from "construct the whole world" to "construct
    one group inside an existing world". ``client_keys`` carries the global
    client signing keys so every group can verify every client (cross-shard
    commits are signed by foreign clients). The defaults are the classic
    world: no namespace, ``client-00..`` from ``config.num_clients``.
    """

    kernel: "Kernel"
    rng: RngRegistry
    tracer: Tracer
    metrics: MetricsRegistry
    spans: Optional[SpanTracker]
    namespace: str = ""
    client_ids: Optional[List[str]] = None
    client_keys: Optional[Dict[str, object]] = None
    shard_id: int = 0


@dataclass
class Deployment:
    """A fully wired simulated system, ready to run."""

    config: SystemConfig
    plan: DistributionPlan
    kernel: Kernel
    rng: RngRegistry
    tracer: Tracer
    topology: Topology
    overlay: Overlay
    network: Network
    attacks: AttackController
    auditor: Auditor
    replicas: Dict[str, ReplicaBase]
    on_premises_hosts: Tuple[str, ...]
    data_center_hosts: Tuple[str, ...]
    proxies: Dict[str, ClientProxy]
    recorder: LatencyRecorder
    recovery: RecoveryOrchestrator
    env: ReplicaEnv
    metrics: MetricsRegistry
    spans: Optional[SpanTracker]
    shard_id: int = 0

    def start(self) -> None:
        """Bring every replica online (idempotent per replica start)."""
        for host in sorted(self.replicas):
            self.replicas[host].start()

    def shutdown(self) -> None:
        """Release external resources (the crypto worker pool, if any)."""
        if self.env.crypto_pool is not None:
            self.env.crypto_pool.shutdown()

    def run(self, until: float) -> float:
        """Advance the simulation to virtual time ``until``."""
        return self.kernel.run(until=until)

    # -- workload helpers ----------------------------------------------------------

    def start_workload(
        self,
        body_fn: Optional[BodyFn] = None,
        duration: Optional[float] = None,
        interval: Optional[float] = None,
        start_at: float = 0.5,
    ) -> List[Process]:
        """Spawn the paper's workload: each client submits one update per
        ``interval`` seconds, phase-staggered, until ``duration``.

        ``body_fn(client_id, seq)`` produces update bodies; the default
        issues key-value SETs.
        """
        interval = interval if interval is not None else self.config.update_interval
        body_fn = body_fn or _default_body
        processes = []
        client_ids = sorted(self.proxies)
        for index, client_id in enumerate(client_ids):
            phase = start_at + (index / max(1, len(client_ids))) * interval
            jitter_rng = self.rng.stream(f"workload.{client_id}")

            def gen(proxy=self.proxies[client_id], cid=client_id, phase=phase, rng=jitter_rng):
                # Field devices poll on nominal intervals but are not
                # synchronized with each other or with the servers; the
                # jitter keeps submission phases from aliasing against the
                # leader's proposal ticks.
                yield Timeout(phase)
                seq = 0
                while duration is None or proxy.kernel.now < start_at + duration:
                    seq += 1
                    proxy.submit(body_fn(cid, seq))
                    yield Timeout(interval * rng.uniform(0.9, 1.1))

            processes.append(spawn(self.kernel, gen(), name=f"workload-{client_id}"))
        return processes

    # -- convenience views -----------------------------------------------------------

    def executing_replicas(self) -> List[ExecutingReplica]:
        return [
            r for r in self.replicas.values() if isinstance(r, ExecutingReplica)
        ]

    def storage_replicas(self) -> List[StorageReplica]:
        return [r for r in self.replicas.values() if isinstance(r, StorageReplica)]

    def current_leader(self) -> str:
        views = [r.engine.view for r in self.replicas.values() if r.online]
        view = max(views) if views else 0
        return self.env.prime_config.leader_of(view)

    def site_of_host(self, host: str) -> str:
        return self.topology.site_of(host).name


def _default_body(client_id: str, seq: int) -> bytes:
    return f"SET {client_id}-key-{seq % 17} value-{seq}".encode("utf-8")


def new_world(config: SystemConfig) -> GroupContext:
    """Kernel, RNG registry, tracer, metrics and spans for ``config``."""
    kernel = Kernel()
    metrics = (
        MetricsRegistry(now_fn=lambda: kernel.now)
        if config.metrics_enabled
        else NULL_METRICS
    )
    metrics.register_gauge("kernel.events_processed", lambda: kernel.events_processed)
    metrics.register_gauge("kernel.pending_events", lambda: kernel.pending_events)
    metrics.register_gauge("kernel.timers_scheduled", lambda: kernel.timers_scheduled)
    metrics.register_gauge("kernel.heap_depth", lambda: kernel.heap_depth)
    tracer = Tracer(kernel, enabled=config.tracing)
    # Causal spans piggyback on the tracer; without tracing there are no
    # milestone events to observe, so there is nothing to attach.
    spans = SpanTracker().attach(tracer) if config.tracing else None
    return GroupContext(kernel, RngRegistry(config.seed), tracer, metrics, spans)


def build(
    config: SystemConfig,
    app_factory: Optional[Callable[[], Application]] = None,
    group: Optional[GroupContext] = None,
) -> Deployment:
    """Construct a deployment per ``config``. See the module docstring.

    With ``group`` set, the deployment is one replica group of a sharded
    world: kernel, tracer, metrics, and spans are shared, hostnames are
    namespaced, and the client population comes from the shard map instead
    of ``config.num_clients``. Without it (the default), behaviour is the
    classic single-group build, byte-identical to pre-shard releases.
    """
    app_factory = app_factory or KeyValueApplication
    group = group or new_world(config)
    kernel, rng, tracer = group.kernel, group.rng, group.tracer
    metrics, spans = group.metrics, group.spans
    # Geography, roles, and every key in the system come from the shared
    # deterministic dealer; on the live runtime the launcher runs the same
    # dealer once and each node loads only its own slice of the keys.
    material = generate_material(
        config,
        rng,
        namespace=group.namespace,
        client_ids=group.client_ids,
        client_keys=group.client_keys,
    )
    topology = material.topology

    overlay = Overlay(topology)
    network = Network(
        kernel,
        topology,
        overlay,
        rng,
        tracer=tracer,
        wan_loss_probability=config.wan_loss_probability,
        metrics=metrics,
        frame_cache_enabled=config.frame_cache_enabled,
    )
    attacks = AttackController(kernel, overlay, tracer=tracer, network=network)
    auditor = Auditor(tracer=tracer)
    network.inspector = auditor.inspect_delivery

    # One env — hence one verification memo and one crypto pool — for the
    # whole deployment: the sim runs every replica in-process, so a
    # retransmit verified once by any replica is a cache hit everywhere.
    # Simulated crypto costs are charged per replica as before; only the
    # real modexp is skipped.
    substrate = dict(kernel=kernel, network=network, tracer=tracer, metrics=metrics)
    env = build_env(
        material,
        config,
        auditor=auditor,
        rng=rng,
        # A store directory gives every replica a FileStore under
        # <store_dir>/<host>.
        store_path=(
            Path(config.store_dir).joinpath if config.store_dir is not None else None
        ),
        **substrate,
    )
    replicas: Dict[str, ReplicaBase] = {
        host: build_replica(env, material, host, app_factory)
        for host in material.all_hosts
    }

    recorder = LatencyRecorder()
    proxies: Dict[str, ClientProxy] = {}
    for cid in material.client_ids:
        proxies[cid] = build_proxy(
            material, config, cid, verify_cache=env.verify_cache, **substrate
        )
        recorder.attach(proxies[cid])

    recovery = RecoveryOrchestrator(kernel, replicas, tracer=tracer)

    return Deployment(
        config=config,
        plan=material.plan,
        kernel=kernel,
        rng=rng,
        tracer=tracer,
        topology=topology,
        overlay=overlay,
        network=network,
        attacks=attacks,
        auditor=auditor,
        replicas=replicas,
        on_premises_hosts=material.on_premises_hosts,
        data_center_hosts=material.data_center_hosts,
        proxies=proxies,
        recorder=recorder,
        recovery=recovery,
        env=env,
        metrics=metrics,
        spans=spans,
        shard_id=group.shard_id,
    )
