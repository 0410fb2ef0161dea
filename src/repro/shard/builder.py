"""Build a sharded deployment: S replica groups behind a routing tier.

:func:`build_sharded` turns the single-group :func:`repro.system.builder.build`
into a topology of groups:

* **shared world** — one kernel, one tracer, one metrics registry, one
  span tracker across all groups, so traces, spans, and bundles merge
  for free;
* **per-group world** — each shard gets its own RNG registry (seeded by
  ``shard_seed``), topology, network, Prime instance, threshold groups,
  stores, and key-renewal schedule, built by the ordinary ``build()``
  under a :class:`~repro.system.builder.GroupContext` with an ``sN.``
  hostname namespace;
* **global identities** — client signing keys are drawn once from the
  deployment seed and shared with every group, so any group can verify
  any client (cross-shard commits are signed by foreign clients);
* **routing tier** — one :class:`~repro.shard.router.ShardRouter` per
  client, mapping alias → home shard via the :class:`ShardMap` every
  router reconstructs from the same :class:`ShardMapAnnounce`;
* **cross-shard path** — one :class:`CrossShardCoordinator` handling the
  two-phase certify-then-inject flow for multi-shard updates.

With ``config.shards == 1`` the classic builder runs unmodified and the
routers are inert pass-throughs: traces are byte-identical to unsharded
builds (enforced by tests/test_shard_identity.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.core.app import Application, KeyValueApplication
from repro.crypto.rsa import generate_keypair
from repro.obs import MetricsRegistry, SpanTracker
from repro.rt.bootstrap import shard_configs, validate_client_ids
from repro.shard.app import ShardAwareApplication, ShardCrossContext
from repro.shard.coordinator import CrossShardCoordinator
from repro.shard.messages import ShardMapAnnounce
from repro.shard.router import ShardRouter
from repro.shard.shardmap import ShardMap
from repro.sim.kernel import Kernel
from repro.sim.process import Process, Timeout, spawn
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.system.builder import BodyFn, Deployment, build, new_world
from repro.system.config import SystemConfig


def _default_body(client_id: str, seq: int) -> bytes:
    return f"SET {client_id}-key-{seq % 17} value-{seq}".encode("utf-8")


@dataclass
class ShardedDeployment:
    """S independent replica groups, one routing tier, one virtual world."""

    config: SystemConfig
    kernel: Kernel
    rng: RngRegistry
    tracer: Tracer
    metrics: MetricsRegistry
    spans: Optional[SpanTracker]
    announce: ShardMapAnnounce
    shard_map: ShardMap
    shards: List[Deployment]
    routers: Dict[str, ShardRouter]
    coordinator: Optional[CrossShardCoordinator]
    client_ids: List[str] = field(default_factory=list)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def shutdown(self) -> None:
        for shard in self.shards:
            shard.shutdown()

    def run(self, until: float) -> float:
        return self.kernel.run(until=until)

    # -- views ---------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of_client(self, client_id: str) -> int:
        return self.routers[client_id].shard_id

    def proxies(self) -> Dict[str, object]:
        """Every client's home-shard proxy, across all shards."""
        return {cid: router.proxy for cid, router in self.routers.items()}

    def completed_count(self) -> int:
        """Total completed client updates across every home proxy."""
        return sum(
            len(proxy.completed) for proxy in self.proxies().values()
        )

    def latencies(self) -> List[float]:
        """Every completed update's latency, across all shards."""
        return [
            latency
            for proxy in self.proxies().values()
            for _, (latency, _) in sorted(proxy.completed.items())
        ]

    # -- workload ------------------------------------------------------------

    def start_workload(
        self,
        body_fn: Optional[BodyFn] = None,
        duration: Optional[float] = None,
        interval: Optional[float] = None,
        start_at: float = 0.5,
        cross_shard_every: int = 0,
    ) -> List[Process]:
        """The paper's phase-staggered workload, routed through the tier.

        With ``cross_shard_every = N > 0`` (and S > 1), every Nth update
        per client writes a key owned by the *key's* shard — usually a
        foreign one — and flows through the two-phase cross-shard path.
        """
        if len(self.shards) == 1:
            # Single shard: delegate to the classic workload generator so
            # the whole run stays byte-identical to an unsharded build.
            return self.shards[0].start_workload(
                body_fn=body_fn,
                duration=duration,
                interval=interval,
                start_at=start_at,
            )
        interval = interval if interval is not None else self.config.update_interval
        body_fn = body_fn or _default_body
        processes = []
        client_ids = sorted(self.routers)
        for index, client_id in enumerate(client_ids):
            phase = start_at + (index / max(1, len(client_ids))) * interval
            jitter_rng = self.rng.stream(f"workload.{client_id}")

            def gen(
                router=self.routers[client_id],
                cid=client_id,
                phase=phase,
                rng=jitter_rng,
            ):
                yield Timeout(phase)
                seq = 0
                while duration is None or self.kernel.now < start_at + duration:
                    seq += 1
                    if cross_shard_every and seq % cross_shard_every == 0:
                        # A multi-key update touching a key the shard map
                        # assigns to some shard — the router adds home,
                        # so the participant set crosses a boundary
                        # whenever the key lives elsewhere.
                        key = f"xkey-{cid}-{seq % 5}"
                        body = f"SET {key} xvalue-{seq}".encode("utf-8")
                        router.submit_cross(
                            body, {self.shard_map.key_shard(key)}
                        )
                    else:
                        router.submit(body_fn(cid, seq))
                    yield Timeout(interval * rng.uniform(0.9, 1.1))

            processes.append(
                spawn(self.kernel, gen(), name=f"workload-{client_id}")
            )
        return processes


def build_sharded(
    config: SystemConfig,
    app_factory: Optional[Callable[[], Application]] = None,
) -> ShardedDeployment:
    """Construct a sharded deployment per ``config.shards``."""
    app_factory = app_factory or KeyValueApplication
    shard_map = ShardMap(seed=config.seed, shards=config.shards)
    announce = shard_map.announce()

    if config.shards == 1:
        deployment = build(config, app_factory=app_factory)
        routers = {
            cid: ShardRouter(
                client_id=cid,
                shard_id=0,
                proxy=proxy,
                kernel=deployment.kernel,
                inert=True,
            )
            for cid, proxy in deployment.proxies.items()
        }
        return ShardedDeployment(
            config=config,
            kernel=deployment.kernel,
            rng=deployment.rng,
            tracer=deployment.tracer,
            metrics=deployment.metrics,
            spans=deployment.spans,
            announce=announce,
            shard_map=ShardMap.from_announce(announce),
            shards=[deployment],
            routers=routers,
            coordinator=None,
            client_ids=list(deployment.proxies),
        )

    # -- shared world ---------------------------------------------------------
    world = new_world(config)
    kernel, rng, tracer = world.kernel, world.rng, world.tracer
    metrics, spans = world.metrics, world.spans

    # -- global client identities --------------------------------------------
    client_ids = [f"client-{i:02d}" for i in range(config.num_clients)]
    validate_client_ids(client_ids)
    keygen = rng.stream("keygen")
    client_keys = {
        cid: generate_keypair(config.rsa_bits, keygen) for cid in client_ids
    }

    # -- per-shard groups -----------------------------------------------------
    cross = ShardCrossContext()
    shards: List[Deployment] = []
    for shard_id, (namespace, local_ids, shard_config) in enumerate(
        shard_configs(config)
    ):

        def shard_app_factory(_shard_id=shard_id):
            return ShardAwareApplication(app_factory(), _shard_id, cross)

        group = replace(
            world,
            rng=RngRegistry(shard_config.seed),
            namespace=namespace,
            client_ids=local_ids,
            client_keys=client_keys,
            shard_id=shard_id,
        )
        shards.append(build(shard_config, app_factory=shard_app_factory, group=group))

    # Certificate verification material: filled before the kernel runs, so
    # every replica's wrapper sees the complete registry from time zero.
    for shard_id, deployment in enumerate(shards):
        cross.response_publics[shard_id] = deployment.env.response_public
    cross.verify_cache = shards[0].env.verify_cache

    # -- routing tier ---------------------------------------------------------
    # Routers reconstruct the map from the announce (not the original
    # object): what a real edge tier would do with the wire message.
    routing_map = ShardMap.from_announce(announce)
    coordinator = CrossShardCoordinator(
        kernel=kernel,
        shard_map=routing_map,
        client_keys=client_keys,
        tracer=tracer,
        metrics=metrics,
    )
    for shard_id, deployment in enumerate(shards):
        coordinator.attach_shard(shard_id, deployment)

    routers: Dict[str, ShardRouter] = {}
    for shard_id, deployment in enumerate(shards):
        for cid in deployment.proxies:
            routers[cid] = ShardRouter(
                client_id=cid,
                shard_id=shard_id,
                proxy=deployment.proxies[cid],
                kernel=kernel,
                route_delay=config.route_delay,
                tracer=tracer,
                metrics=metrics,
                coordinator=coordinator,
            )

    return ShardedDeployment(
        config=config,
        kernel=kernel,
        rng=rng,
        tracer=tracer,
        metrics=metrics,
        spans=spans,
        announce=announce,
        shard_map=routing_map,
        shards=shards,
        routers=routers,
        coordinator=coordinator,
        client_ids=client_ids,
    )
