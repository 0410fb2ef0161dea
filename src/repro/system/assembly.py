"""The one assembly of a deployment, shared by the sim and a live node.

A deployment is a key-free :class:`SystemLayout` — geography, roles,
Prime ordering, proxy map — that every process computes from the config
alone (:func:`system_layout`), plus keys that only a one-time dealer
generates. :func:`generate_material` is that dealer: it draws threshold
groups, client keys and hardware keystores from the ``"keygen"`` stream
of the run's :class:`~repro.sim.rng.RngRegistry`, and its draw order is
what keeps existing simulation traces byte-identical. The simulation
builds the whole world in one process and hands each component its keys
directly; the live runtime (:mod:`repro.rt.bootstrap`,
:mod:`repro.rt.keys`) runs the same dealer once and gives each node
process only its own keys.

:func:`build_env` / :func:`build_replica` / :func:`build_proxy` are the one
assembly of the protocol objects: ``repro.system.builder.build`` loops them
over every host and client of a simulated world, a live node calls them
for the one host or client it is, and only the substrate handles passed in
(scheduler, transport, tracer, auditor, RNG registry, metrics) differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.app import Application, KeyValueApplication
from repro.core.distribution import DistributionPlan, plan_confidential, plan_spire
from repro.core.intro import seed_batch_jitter
from repro.core.messages import client_alias
from repro.core.proxy import ClientProxy
from repro.core.executing import ExecutingReplica
from repro.core.replica import ReplicaBase, ReplicaEnv, StorageReplica
from repro.errors import ConfigurationError
from repro.crypto.keystore import HardwareKeyStore
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.crypto.symmetric import SymmetricKeyPair, derive_keypair
from repro.crypto.threshold import ThresholdKeyGroup, generate_threshold_key
from repro.crypto.verifycache import VerifyCache
from repro.net.topology import CLIENT_SITE, Topology, east_coast_topology
from repro.prime.config import PrimeConfig
from repro.sim.rng import RngRegistry
from repro.system.config import ProtocolConfig, SystemConfig


@dataclass
class SystemLayout:
    """Who runs where: geography, roles, Prime ordering, proxy map.

    A function of the config alone — no RNG draw, no key — so every
    process of a deployment computes the identical layout on its own.
    """

    plan: DistributionPlan
    topology: Topology
    on_premises_hosts: Tuple[str, ...]
    data_center_hosts: Tuple[str, ...]
    all_hosts: Tuple[str, ...]
    executing_hosts: Tuple[str, ...]
    prime_config: PrimeConfig
    client_ids: List[str]
    proxy_of_client: Dict[str, str]

    def role_of(self, host: str) -> str:
        """"executing" | "storage" for a replica host."""
        return "executing" if host in self.executing_hosts else "storage"


@dataclass
class SystemMaterial(SystemLayout):
    """A layout plus keys: all of them as the dealer generated them, or a
    live node's slice of them loaded from its key file."""

    intro_group: Optional[ThresholdKeyGroup]
    response_group: ThresholdKeyGroup
    client_keys: Dict[str, RsaKeyPair]
    client_registry: Dict[str, RsaPublicKey]
    initial_client_keys: Dict[str, SymmetricKeyPair]
    keystores: Dict[str, HardwareKeyStore]


def system_layout(
    config: ProtocolConfig,
    *,
    namespace: str = "",
    client_ids: Optional[List[str]] = None,
    foreign_client_ids: Sequence[str] = (),
) -> SystemLayout:
    """The key-free layout of ``config`` (see :func:`generate_material`
    for the keyword parameters; ``foreign_client_ids`` are the known
    clients that get a gateway host instead of a proxy)."""
    if config.confidential:
        plan = plan_confidential(config.f, config.data_centers)
    else:
        plan = plan_spire(config.f, config.data_centers)

    topology = east_coast_topology(config.data_centers)
    on_prem_hosts, dc_hosts = _place_replicas(topology, plan, namespace)
    all_hosts = on_prem_hosts + dc_hosts

    prime_config = PrimeConfig(
        replica_ids=_interleave_by_site(topology, all_hosts),
        f=plan.f,
        k=plan.k,
        pp_interval=config.pp_interval,
        vc_timeout=config.vc_timeout,
    )

    if client_ids is None:
        client_ids = [f"client-{i:02d}" for i in range(config.num_clients)]
    validate_client_ids(client_ids)
    # Local clients get their proxy host; foreign clients get a gateway
    # host the cross-shard coordinator can attach a proxy to on demand.
    proxy_of_client = {cid: f"{namespace}proxy-{cid}" for cid in client_ids}
    for cid in foreign_client_ids:
        proxy_of_client.setdefault(cid, f"{namespace}gw-{cid}")
    for proxy_host in proxy_of_client.values():
        topology.add_host(proxy_host, CLIENT_SITE)

    return SystemLayout(
        plan=plan,
        topology=topology,
        on_premises_hosts=tuple(on_prem_hosts),
        data_center_hosts=tuple(dc_hosts),
        all_hosts=tuple(all_hosts),
        executing_hosts=tuple(on_prem_hosts if config.confidential else all_hosts),
        prime_config=prime_config,
        client_ids=client_ids,
        proxy_of_client=proxy_of_client,
    )


def generate_material(
    config: SystemConfig,
    rng: RngRegistry,
    *,
    namespace: str = "",
    client_ids: Optional[List[str]] = None,
    client_keys: Optional[Dict[str, RsaKeyPair]] = None,
) -> SystemMaterial:
    """Derive the full deterministic system material for ``config``.

    The RNG draw order on the ``"keygen"`` stream is a compatibility
    contract: changing it changes every key in every existing trace.

    The keyword parameters exist for ShardLab's per-group material and all
    default to the classic single-group behaviour:

    * ``namespace`` prefixes every replica/proxy hostname (e.g. ``"s1."``)
      so S groups can share one tracer and one merged bundle without
      ambiguity.
    * ``client_ids`` names this group's *local* clients explicitly instead
      of deriving ``client-00..`` from ``num_clients``.
    * ``client_keys`` supplies pre-generated signing keys for the *global*
      client population. Local clients use their entry; every other
      (foreign) client is still registered for verification and given a
      gateway proxy host, so a cross-shard commit signed by a foreign
      client introduces through the normal pipeline.
    """
    layout = system_layout(
        config,
        namespace=namespace,
        client_ids=client_ids,
        foreign_client_ids=tuple(client_keys or ()),
    )
    client_ids = layout.client_ids

    # -- cryptographic material (the system-setup "dealer" role) -----------------
    keygen_rng = rng.stream("keygen")

    intro_group: Optional[ThresholdKeyGroup] = None
    if config.confidential:
        intro_group = generate_threshold_key(
            config.threshold_bits, layout.plan.f + 1,
            len(layout.on_premises_hosts), keygen_rng,
        )
    response_group = generate_threshold_key(
        config.threshold_bits, layout.plan.f + 1, len(layout.executing_hosts), keygen_rng
    )

    if client_keys is None:
        local_keys: Dict[str, RsaKeyPair] = {
            cid: generate_keypair(config.rsa_bits, keygen_rng) for cid in client_ids
        }
        known_keys = local_keys
    else:
        missing = [cid for cid in client_ids if cid not in client_keys]
        if missing:
            raise ConfigurationError(
                f"client_keys lacks entries for local clients {missing}"
            )
        local_keys = {cid: client_keys[cid] for cid in client_ids}
        known_keys = client_keys
    # Replicas verify signatures for every *known* client — in a sharded
    # deployment that is the global population, so a cross-shard commit
    # signed by a foreign client's key verifies here.
    client_registry = {cid: kp.public for cid, kp in known_keys.items()}
    initial_client_keys: Dict[str, SymmetricKeyPair] = {
        client_alias(cid): derive_keypair(
            rng.randbytes(f"client-keys.{cid}", 32)
        )
        for cid in known_keys
    }

    # Hardware keystores: every replica has a TPM identity key; on-premises
    # replicas additionally share the hardware-protected symmetric key.
    hw_shared = derive_keypair(rng.randbytes("hw-shared-key", 32))
    keystores: Dict[str, HardwareKeyStore] = {}
    for host in layout.all_hosts:
        identity = generate_keypair(config.rsa_bits, keygen_rng)
        on_premises = host in layout.on_premises_hosts
        shared = hw_shared if (on_premises and config.confidential) else None
        keystores[host] = HardwareKeyStore(host, identity, shared)

    return SystemMaterial(
        **vars(layout),
        intro_group=intro_group,
        response_group=response_group,
        client_keys=local_keys,
        client_registry=client_registry,
        initial_client_keys=initial_client_keys,
        keystores=keystores,
    )


def validate_client_ids(client_ids: List[str]) -> None:
    """Reject empty, duplicate, or alias-colliding client id sets.

    Duplicate ids used to slip through silently (the material dicts are
    keyed by id, so a duplicate overwrote its twin's keys); an alias
    collision would let two distinct clients impersonate each other at
    the introduction layer.
    """
    if not client_ids:
        raise ConfigurationError("at least one client id required")
    seen: Dict[str, str] = {}
    for cid in client_ids:
        if not cid:
            raise ConfigurationError("client ids must be non-empty strings")
        if cid in seen:
            raise ConfigurationError(f"duplicate client id {cid!r}")
        seen[cid] = cid
    aliases: Dict[str, str] = {}
    for cid in client_ids:
        alias = client_alias(cid)
        if alias in aliases:
            raise ConfigurationError(
                f"client ids {aliases[alias]!r} and {cid!r} collide on alias {alias}"
            )
        aliases[alias] = cid


def _interleave_by_site(topology: Topology, hosts: Tuple[str, ...]) -> Tuple[str, ...]:
    """Order hosts round-robin across their sites, so that the Prime
    leader rotation (which follows this order) never dwells in one site."""
    by_site: Dict[str, List[str]] = {}
    for host in hosts:
        by_site.setdefault(topology.site_of(host).name, []).append(host)
    columns = [sorted(by_site[site]) for site in sorted(by_site)]
    interleaved: List[str] = []
    for row in range(max(len(c) for c in columns)):
        for column in columns:
            if row < len(column):
                interleaved.append(column[row])
    return tuple(interleaved)


def _place_replicas(
    topology: Topology, plan: DistributionPlan, namespace: str = ""
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Create replica hostnames and place them in their sites."""
    from repro.net.topology import (
        CONTROL_CENTER_A,
        CONTROL_CENTER_B,
        DATA_CENTER_1,
        DATA_CENTER_2,
        DATA_CENTER_3,
    )

    on_prem_sites = [CONTROL_CENTER_A, CONTROL_CENTER_B]
    dc_sites = [DATA_CENTER_1, DATA_CENTER_2, DATA_CENTER_3][: len(plan.data_centers)]
    on_prem_hosts: List[str] = []
    dc_hosts: List[str] = []
    for site, count in zip(on_prem_sites, plan.on_premises):
        for i in range(count):
            host = f"{namespace}{site}-r{i}"
            topology.add_host(host, site)
            on_prem_hosts.append(host)
    for site, count in zip(dc_sites, plan.data_centers):
        for i in range(count):
            host = f"{namespace}{site}-r{i}"
            topology.add_host(host, site)
            dc_hosts.append(host)
    return tuple(on_prem_hosts), tuple(dc_hosts)


# -- assembly: the same protocol objects on either substrate ---------------------


def build_verify_cache(config: SystemConfig, metrics) -> Optional[VerifyCache]:
    """The signature-verification memo (see repro.crypto.verifycache), or
    None when the config turns it off."""
    if not config.verify_cache_enabled:
        return None
    return VerifyCache(
        hit_counter=metrics.counter("crypto.verify_cache_hit"),
        miss_counter=metrics.counter("crypto.verify_cache_miss"),
    )


def build_env(
    material: SystemMaterial,
    config: SystemConfig,
    *,
    metrics,
    store_path: Optional[Callable[[str], Path]] = None,
    **substrate,
) -> ReplicaEnv:
    """The :class:`ReplicaEnv` every replica of this process shares.

    ``substrate`` carries the env's own handles: kernel, network, tracer,
    auditor, rng. ``store_path`` maps a host to its FileStore directory
    (None keeps the volatile MemoryStore). Also creates what lives as long
    as the env: the crypto worker pool (``config.crypto_workers`` > 0; the
    caller shuts ``env.crypto_pool`` down) and the seeded batch jitter.
    """
    store_factory = None
    if store_path is not None:
        from repro.store.filestore import FileStore

        def store_factory(host: str):
            return FileStore(
                store_path(host),
                fsync=config.store_fsync,
                segment_bytes=config.store_segment_bytes,
                metrics=metrics,
                host=host,
            )

    crypto_pool = None
    if config.crypto_workers > 0:
        from repro.crypto.pool import CryptoPool

        crypto_pool = CryptoPool(workers=config.crypto_workers)
    if config.intro_batch_size > 1:
        # Seed the proposer window jitter from the deployment seed so
        # batched runs are reproducible. Singleton runs never draw from
        # this stream, preserving byte-identity at batch size 1.
        seed_batch_jitter(config.seed)

    intro_group = material.intro_group
    return ReplicaEnv(
        config=config,
        prime_config=material.prime_config,
        all_replicas=material.all_hosts,
        on_premises=material.on_premises_hosts,
        executing=material.executing_hosts,
        intro_public=intro_group.public if intro_group else None,
        response_public=material.response_group.public,
        client_registry=material.client_registry,
        proxy_of_client=material.proxy_of_client,
        metrics=metrics,
        store_factory=store_factory,
        verify_cache=build_verify_cache(config, metrics),
        crypto_pool=crypto_pool,
        **substrate,
    )


def build_replica(
    env: ReplicaEnv,
    material: SystemMaterial,
    host: str,
    app_factory: Callable[[], Application] = KeyValueApplication,
) -> ReplicaBase:
    """``host``'s replica in its role; an executing one is handed its
    key shares and the client keys, a storage one neither."""
    if host not in material.executing_hosts:
        return StorageReplica(env, host, material.keystores[host])
    share = material.executing_hosts.index(host) + 1
    intro_group = material.intro_group
    return ExecutingReplica(
        env=env,
        host=host,
        keystore=material.keystores[host],
        app_factory=app_factory,
        intro_share=intro_group.shares[share] if intro_group else None,
        response_share=material.response_group.shares[share],
        client_keys=material.initial_client_keys,
    )


def build_proxy(
    material: SystemMaterial, config: SystemConfig, client_id: str, **substrate
) -> ClientProxy:
    """``client_id``'s proxy on its assigned host. ``substrate`` carries
    :class:`ClientProxy`'s own keywords: kernel, network, tracer, metrics,
    verify_cache and (live) retransmit_timeout."""
    return ClientProxy(
        host=material.proxy_of_client[client_id],
        client_id=client_id,
        signing_key=material.client_keys[client_id],
        response_public=material.response_group.public,
        on_premises_replicas=list(material.on_premises_hosts),
        costs=config.costs,
        **substrate,
    )
