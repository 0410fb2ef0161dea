"""Deterministic system bootstrap shared by the sim builder and live nodes.

A deployment is a key-free :class:`SystemLayout` — geography, roles,
Prime ordering, proxy map — that every process computes from the config
alone, plus keys that only a one-time dealer generates.
:func:`generate_material` is that dealer: it draws threshold groups,
client keys and hardware keystores from the ``"keygen"`` stream of the
run's :class:`~repro.sim.rng.RngRegistry`, and its draw order is what
keeps existing simulation traces byte-identical. The simulation builds
the whole world in one process and hands each component its keys
directly.

The live runtime runs the dealer once too — in the launcher, or in the
compose fleet's spec-init step — and writes one key file per node
(:func:`write_key_files`, ``<out_dir>/keys/<host>.json``, mode 0600).
Each file holds the public material every node needs plus exactly what
that node's role uses: an executing replica its own threshold shares,
the initial client keys and its keystore; a storage replica its identity
key; a client its signing key. A node builds its
:class:`SystemMaterial` from :func:`fleet_layout` and its own file
(:func:`load_node_material`) and never generates a key.

:func:`build_env` / :func:`build_replica` / :func:`build_proxy` are the one
assembly of the protocol objects: ``repro.system.builder.build`` loops them
over every host and client of a simulated world, a live node calls them
for the one host or client it is, and only the substrate handles passed in
(scheduler, transport, tracer, auditor, RNG registry, metrics) differ.

:class:`RtConfig` is the JSON-serialisable description of one live
deployment: the launcher writes it to a spec file, every spawned node
reads it back, and both sides derive the same
:class:`~repro.system.config.SystemConfig`, layout, and port map.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.app import Application, KeyValueApplication
from repro.core.distribution import DistributionPlan, plan_confidential, plan_spire
from repro.core.intro import seed_batch_jitter
from repro.core.messages import client_alias
from repro.core.proxy import ClientProxy
from repro.core.executing import ExecutingReplica
from repro.core.replica import ReplicaBase, ReplicaEnv, StorageReplica
from repro.errors import ConfigurationError, CryptoError
from repro.costs import FREE
from repro.crypto.keystore import HardwareKeyStore
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.crypto.symmetric import SymmetricKeyPair, derive_keypair
from repro.crypto.threshold import (
    ThresholdKeyGroup,
    ThresholdKeyShare,
    ThresholdPublicKey,
    generate_threshold_key,
)
from repro.crypto.verifycache import VerifyCache
from repro.net.topology import CLIENT_SITE, Topology, east_coast_topology
from repro.prime.config import PrimeConfig
from repro.sim.rng import RngRegistry
from repro.system.config import C, ProtocolConfig, SystemConfig, flag, project


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


# -- live deployment spec ---------------------------------------------------------


#: ``""`` keeps the closed-loop driver; the rest are
#: :data:`repro.load.arrivals.PROFILES` (not imported: that package
#: imports this module).
LOAD_PROFILES = ("", "poisson", "bursty", "diurnal", "storm")


@dataclass(frozen=True)
class RtConfig(ProtocolConfig):
    """One live deployment, JSON round-trippable for the spec file.

    The protocol knobs are :class:`~repro.system.config.ProtocolConfig`'s;
    this class adds where and how the fleet runs (ports, artifacts, the
    client drivers, telemetry) and re-declares only the five defaults
    that are deliberately scaled for real processes.
    """

    # Fewer, faster clients than the paper's ten at 1 update/s: each
    # client is an OS process, and a closed-loop run should finish in
    # seconds of wall time, not minutes.
    num_clients: int = field(default=5, metadata=flag("--clients"))
    update_interval: float = field(default=0.02, metadata=flag(
        "--interval", "pacing delay between a client's updates"))
    # Live-scaled protocol timing: the sim charges modelled CPU costs on
    # a virtual clock, while live processes pay real scheduling, real
    # crypto, and real TCP under a shared machine, so the sim's 100 ms
    # view-change timeout would misfire constantly.
    pp_interval: float = 0.05
    vc_timeout: float = 3.0
    failover_delay: float = 0.5
    retransmit_timeout: float = 2.0

    #: Port-space stride between shards: shard N's ports start at
    #: ``base_port + N * shard_port_stride``. Must exceed twice the
    #: number of hosts + proxies of any one shard.
    shard_port_stride: int = 256

    #: Updates each client submits (closed loop: next begins when the
    #: previous completes or the pacing interval elapses).
    updates_per_client: int = field(default=100, metadata=flag(
        "--updates", "updates per client (closed loop)"))

    # Below the Linux ephemeral range (32768+): a peer's outbound
    # connection must never steal a listener's port.
    base_port: int = field(default=17000, metadata=flag("--base-port"))
    bind_host: str = "127.0.0.1"
    #: Inject the emulated topology's site latencies at the transport
    #: layer. Off for pure-throughput benchmarking.
    latency: bool = field(default=True, metadata=flag(
        "--no-latency", "disable emulated site latencies"))
    #: Shared wall-clock epoch (the launcher's launch instant); every
    #: node's ``now`` is seconds since this, so merged timelines align.
    epoch: float = 0.0
    #: Directory for per-node artifacts and the merged bundle.
    out_dir: str = field(default="rt-out", metadata=flag(
        "--out", "artifacts: spec, logs, per-node slices, merged bundle",
        metavar="DIR"))

    # Durable storage (repro.store): each replica process keeps a
    # FileStore under <out_dir>/nodes/<host>/store, so a SIGKILLed node
    # recovers its own prefix from disk and only the missing suffix
    # crosses the network on respawn.
    durable_store: bool = field(default=True, metadata=flag("--no-durable-store"))

    # WatchLab: live telemetry + anomaly detection. ``trace_wire`` stamps
    # every outbound frame with a v2 trace-context extension (trace id +
    # sender HLC); ``telemetry_interval`` paces each node's watch tick
    # (snapshot, span drain, detector poll); ``detectors`` arms the
    # online anomaly detectors. All default on — frames stay v1 and the
    # watch loop idle only when explicitly disabled.
    trace_wire: bool = field(default=True, metadata=flag(
        "--no-trace-wire", "disable wire-level trace context propagation"))
    telemetry_interval: float = field(default=1.0, metadata=flag(
        "--telemetry-interval", "seconds between telemetry snapshots "
                                "(0 = disable the watch loop)"))
    detectors: bool = field(default=True, metadata=flag(
        "--no-detectors", "disable online anomaly detectors"))

    # LoadLab: open-loop client driving (:mod:`repro.load.arrivals`). An
    # empty ``load_profile`` keeps the classic closed loop above. With a
    # profile set ("poisson" | "bursty" | "diurnal" | "storm"), every
    # client process runs an open-loop driver instead: seeded arrivals at
    # ``load_rate / num_clients`` per client, its slice of ``load_aliases``
    # client aliases multiplexed over its one real proxy, and arrivals
    # that find the proxy's in-flight window full are dropped and counted
    # — never silently deferred.
    load_profile: str = field(default="", metadata=flag(
        "--load-profile", "open-loop arrival profile for the client "
                          "drivers (default: closed loop)",
        choices=LOAD_PROFILES))
    load_rate: float = field(default=20.0, metadata=flag(
        "--load-rate", "aggregate offered arrivals/s across clients"))
    load_aliases: int = field(default=200, metadata=flag(
        "--load-aliases", "distinct client aliases fleet-wide"))
    load_duration: float = field(default=10.0, metadata=flag(
        "--load-duration", "open-loop generation window in seconds"))
    load_max_inflight: int = 4
    load_deadline: float = 4.0
    load_keyspace: int = 4
    load_value_bytes: int = 32
    load_profile_params: Dict[str, float] = field(default_factory=dict)

    _MINIMUM = ProtocolConfig._MINIMUM + (
        ("telemetry_interval", 0), ("load_duration", 0), ("load_max_inflight", 1),
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.load_profile not in LOAD_PROFILES:
            raise ConfigurationError(
                f"load_profile must be one of {LOAD_PROFILES}, "
                f"got {self.load_profile!r}"
            )
        if self.load_rate <= 0:
            raise ConfigurationError("load_rate must be positive")

    def system_config(self) -> SystemConfig:
        """The :class:`SystemConfig` the dealer and every node's layout
        come from.

        Costs are :data:`~repro.costs.FREE`: live crypto does real work on
        a real CPU, so charging modelled costs on top would double-count.
        """
        return project(self, SystemConfig, costs=FREE)

    def to_json(self) -> str:
        return json.dumps(
            {**asdict(self), "mode": self.mode.value}, indent=2, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "RtConfig":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"spec is not valid JSON: {exc}") from None
        return cls(**_exact_keys(data, [f.name for f in fields(cls)], "spec"))


def _exact_keys(data: Any, names: Sequence[str], what: str) -> Dict[str, Any]:
    """``data``, which must be a JSON object with exactly the keys
    ``names``; every unknown and missing key is named in one
    :class:`ConfigurationError`."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    problems = [f"unknown key {key!r}" for key in sorted(set(data) - set(names))]
    problems += [f"missing key {key!r}" for key in sorted(set(names) - set(data))]
    if problems:
        raise ConfigurationError(f"{what}: " + ", ".join(problems))
    return data


@dataclass
class ShardSlice:
    """One shard's share of a live fleet: local clients, layout, ports.

    ``material`` is the key-free layout (:func:`fleet_layout`), or the
    full :class:`SystemMaterial` in the dealer's fleet
    (:func:`generate_fleet`).
    """

    shard_id: int
    client_ids: List[str]
    config: SystemConfig
    material: SystemLayout
    base_port: int

    def ports(self) -> Dict[str, Tuple[int, int]]:
        return host_ports(self.material, self.base_port)


def shard_configs(config: C) -> List[Tuple[str, List[str], C]]:
    """Per replica group: (hostname namespace, local client ids, its
    single-group config).

    One shard is the classic deployment, unchanged. S > 1 gives shard N
    the clients the seeded :class:`~repro.shard.shardmap.ShardMap` assigns
    it, the ``sN.`` namespace, and its own seed.
    """
    client_ids = [f"client-{i:02d}" for i in range(config.num_clients)]
    if config.shards == 1:
        return [("", client_ids, config)]
    from repro.shard.shardmap import ShardMap, shard_seed

    assignment = ShardMap(seed=config.seed, shards=config.shards).assign(client_ids)
    empty = sorted(s for s, ids in assignment.items() if not ids)
    if empty:
        raise ConfigurationError(
            f"shard map (seed={config.seed}, shards={config.shards}) leaves "
            f"shards {empty} without clients; use more clients, fewer "
            "shards, or another seed"
        )
    return [
        (
            f"s{shard_id}.",
            local_ids,
            replace(
                config,
                shards=1,
                num_clients=len(local_ids),
                seed=shard_seed(config.seed, shard_id),
            ),
        )
        for shard_id, local_ids in sorted(assignment.items())
    ]


def fleet_layout(config: RtConfig) -> List[ShardSlice]:
    """Every shard's key-free layout and ports for one live deployment.

    What a node, an observer or the compose generator computes from the
    spec alone. For ``shards == 1`` this is the classic single group (no
    namespace, ports at ``base_port``).
    """
    return _fleet(config, lambda shard_config, namespace, local_ids: system_layout(
        shard_config, namespace=namespace, client_ids=local_ids))


def generate_fleet(config: RtConfig) -> List[ShardSlice]:
    """The live dealer: :func:`fleet_layout` with every key generated.

    Runs once per deployment — in the launcher, or the compose fleet's
    spec-init step — and reaches the nodes only as the key files
    :func:`write_key_files` deals from it.
    """
    return _fleet(config, lambda shard_config, namespace, local_ids: generate_material(
        shard_config, RngRegistry(shard_config.seed),
        namespace=namespace, client_ids=local_ids))


def _fleet(
    config: RtConfig, derive: Callable[[SystemConfig, str, List[str]], SystemLayout]
) -> List[ShardSlice]:
    slices: List[ShardSlice] = []
    for shard_id, (namespace, local_ids, shard_config) in enumerate(
        shard_configs(config.system_config())
    ):
        material = derive(shard_config, namespace, local_ids)
        hosts_needed = 2 * (len(material.all_hosts) + len(material.proxy_of_client))
        if config.shards > 1 and hosts_needed > config.shard_port_stride:
            raise ConfigurationError(
                f"shard {shard_id} needs {hosts_needed} ports but "
                f"shard_port_stride is {config.shard_port_stride}"
            )
        slices.append(
            ShardSlice(
                shard_id=shard_id,
                client_ids=local_ids,
                config=shard_config,
                material=material,
                base_port=config.base_port + shard_id * config.shard_port_stride,
            )
        )
    return slices


def slice_for_host(slices: List[ShardSlice], host: str) -> ShardSlice:
    """The shard slice a replica/proxy hostname belongs to."""
    for shard in slices:
        if host in shard.material.all_hosts or host in shard.ports():
            return shard
    raise ConfigurationError(f"host {host!r} belongs to no shard of this fleet")


def slice_for_client(slices: List[ShardSlice], client_id: str) -> ShardSlice:
    """The home shard slice of ``client_id``."""
    for shard in slices:
        if client_id in shard.client_ids:
            return shard
    raise ConfigurationError(f"client {client_id!r} belongs to no shard of this fleet")


def host_ports(layout: SystemLayout, base_port: int) -> Dict[str, Tuple[int, int]]:
    """Deterministic (data_port, control_port) per host.

    Sorted over replicas then proxies so every process computes the same
    map without coordination: host i gets base+2i (data) and base+2i+1
    (control).
    """
    hosts = sorted(layout.all_hosts) + sorted(layout.proxy_of_client.values())
    return {
        host: (base_port + 2 * i, base_port + 2 * i + 1)
        for i, host in enumerate(hosts)
    }


def data_ports(layout: SystemLayout, base_port: int) -> Dict[str, int]:
    """Just the data-plane port per host (what :class:`LiveTransport` needs)."""
    return {host: ports[0] for host, ports in host_ports(layout, base_port).items()}


# -- the live dealer's key files --------------------------------------------------
#
# One JSON object per node: ``host`` and ``spec_sha256`` bind it to the
# node and the spec it was dealt for, ``public`` is the same in every
# file, ``secrets`` holds exactly what the node's role uses. Integers are
# hex strings, byte strings hex; nothing is pickled.

_KEY_FILE = ("host", "spec_sha256", "public", "secrets")
_PUBLIC = ("intro", "response", "clients")
_THRESHOLD_PUBLIC = ("n", "e", "threshold", "players", "verifier_base", "verifier_keys")
_SYMMETRIC = ("enc_key", "prf_key")


def key_file(config: RtConfig, host: str) -> Path:
    """Where the dealer writes ``host``'s keys and the node reads them."""
    return Path(config.out_dir) / "keys" / f"{host}.json"


def spec_digest(config: RtConfig) -> str:
    """The digest a key file carries of the spec it was dealt for."""
    return hashlib.sha256(config.to_json().encode("utf-8")).hexdigest()


def _secret_names(layout: SystemLayout, host: str, confidential: bool) -> Tuple[str, ...]:
    """What ``host``'s role is handed by :func:`build_replica` /
    :func:`build_proxy`, and so all its key file holds."""
    if host in layout.executing_hosts:
        on_premises = ("intro_share", "hw_shared_key") if confidential else ()
        return ("identity_key", "response_share", "client_keys") + on_premises
    if host in layout.all_hosts:
        return ("identity_key",)
    return ("signing_key",)


def write_key_files(config: RtConfig, fleet: List[ShardSlice]) -> List[Path]:
    """Deal ``fleet`` (:func:`generate_fleet` of ``config``): one key file
    per replica and client, readable by the owner only. Returns the paths."""
    digest = spec_digest(config)
    written: List[Path] = []
    for shard in fleet:
        material = shard.material
        intro = material.intro_group
        public = {
            "intro": _threshold_public_json(intro.public) if intro else None,
            "response": _threshold_public_json(material.response_group.public),
            "clients": {
                cid: {"n": _hex(key.n), "e": _hex(key.e)}
                for cid, key in material.client_registry.items()
            },
        }
        dealt = {host: _replica_secrets(material, host) for host in material.all_hosts}
        for cid in shard.client_ids:
            dealt[material.proxy_of_client[cid]] = {
                "signing_key": _rsa_json(material.client_keys[cid])
            }
        for host, secrets in dealt.items():
            path = key_file(config, host)
            path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            _write_private(path, json.dumps(
                {"host": host, "spec_sha256": digest, "public": public,
                 "secrets": secrets},
                sort_keys=True,
            ))
            written.append(path)
    return written


def _replica_secrets(material: SystemMaterial, host: str) -> Dict[str, Any]:
    # The dealer provisions each hardware compartment, so it reads back
    # the keys it put there; no node can export them.
    keystore = material.keystores[host]
    secrets: Dict[str, Any] = {"identity_key": _rsa_json(keystore._identity_key)}
    if host in material.executing_hosts:
        index = material.executing_hosts.index(host) + 1
        secrets["response_share"] = _hex(material.response_group.shares[index].share)
        secrets["client_keys"] = {
            alias: _symmetric_json(keys)
            for alias, keys in material.initial_client_keys.items()
        }
        if material.intro_group is not None:
            secrets["intro_share"] = _hex(material.intro_group.shares[index].share)
            secrets["hw_shared_key"] = _symmetric_json(keystore._shared_symmetric)
    return secrets


def load_node_material(config: RtConfig, layout: SystemLayout, host: str) -> SystemMaterial:
    """``host``'s material: its shard's ``layout`` plus the keys dealt to it.

    A key file that is missing, unreadable, truncated or not JSON, has an
    unknown or missing field or a malformed value, or was dealt to another
    host or for another spec fails with one :class:`ConfigurationError`
    naming its path.
    """
    path = key_file(config, host)
    what = f"key file {path}"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"{what}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from None
    data = _exact_keys(data, _KEY_FILE, what)
    if data["host"] != host:
        raise ConfigurationError(f"{what} was dealt to {data['host']!r}, not {host!r}")
    if data["spec_sha256"] != spec_digest(config):
        raise ConfigurationError(
            f"{what} was dealt for another spec (seed or settings differ)"
        )
    public = _exact_keys(data["public"], _PUBLIC, f"{what}: public")
    secrets = _exact_keys(
        data["secrets"], _secret_names(layout, host, config.confidential),
        f"{what}: secrets",
    )
    try:
        return _node_material(layout, host, public, secrets, what)
    except (AttributeError, TypeError, ValueError, CryptoError) as exc:
        raise ConfigurationError(f"{what} is malformed: {exc}") from None


def _node_material(
    layout: SystemLayout, host: str, public: Dict, secrets: Dict, what: str
) -> SystemMaterial:
    index = layout.executing_hosts.index(host) + 1 if host in layout.executing_hosts else 0

    def group(key: Any, share: str) -> ThresholdKeyGroup:
        public_key = _threshold_public(key, f"{what}: public")
        shares = {}
        if share in secrets:
            shares[index] = ThresholdKeyShare(public_key, index, _unhex(secrets[share]))
        return ThresholdKeyGroup(public_key, shares)

    keystores = {}
    if "identity_key" in secrets:
        shared = secrets.get("hw_shared_key")
        keystores[host] = HardwareKeyStore(
            host,
            _rsa(secrets["identity_key"], f"{what}: identity_key"),
            _symmetric(shared, f"{what}: hw_shared_key") if shared else None,
        )
    client_keys = {
        cid: _rsa(secrets["signing_key"], f"{what}: signing_key")
        for cid, proxy_host in layout.proxy_of_client.items()
        if proxy_host == host
    }
    return SystemMaterial(
        **vars(layout),
        intro_group=None if public["intro"] is None else group(public["intro"], "intro_share"),
        response_group=group(public["response"], "response_share"),
        client_keys=client_keys,
        client_registry={
            cid: RsaPublicKey(*_hex_fields(key, ("n", "e"), f"{what}: client {cid}"))
            for cid, key in public["clients"].items()
        },
        initial_client_keys={
            alias: _symmetric(keys, f"{what}: client_keys")
            for alias, keys in secrets.get("client_keys", {}).items()
        },
        keystores=keystores,
    )


def _hex(value: int) -> str:
    return format(value, "x")


def _unhex(text: Any) -> int:
    if not isinstance(text, str):
        raise ValueError(f"expected a hex string, got {type(text).__name__}")
    return int(text, 16)


def _hex_fields(data: Any, names: Sequence[str], what: str) -> List[int]:
    data = _exact_keys(data, names, what)
    return [_unhex(data[name]) for name in names]


def _rsa_json(key: RsaKeyPair) -> Dict[str, str]:
    return {"n": _hex(key.public.n), "e": _hex(key.public.e), "d": _hex(key.d)}


def _rsa(data: Any, what: str) -> RsaKeyPair:
    n, e, d = _hex_fields(data, ("n", "e", "d"), what)
    return RsaKeyPair(RsaPublicKey(n, e), d)


def _symmetric_json(keys: SymmetricKeyPair) -> Dict[str, str]:
    return {"enc_key": keys.enc_key.hex(), "prf_key": keys.prf_key.hex()}


def _symmetric(data: Any, what: str) -> SymmetricKeyPair:
    data = _exact_keys(data, _SYMMETRIC, what)
    return SymmetricKeyPair(*(bytes.fromhex(data[name]) for name in _SYMMETRIC))


def _threshold_public_json(key: ThresholdPublicKey) -> Dict[str, Any]:
    return {
        "n": _hex(key.n_modulus), "e": _hex(key.e),
        "threshold": _hex(key.threshold), "players": _hex(key.players),
        "verifier_base": _hex(key.verifier_base),
        "verifier_keys": {str(i): _hex(v) for i, v in sorted(key.verifier_keys.items())},
    }


def _threshold_public(data: Any, what: str) -> ThresholdPublicKey:
    data = _exact_keys(data, _THRESHOLD_PUBLIC, what)
    n, e, threshold, players, verifier_base = (
        _unhex(data[name]) for name in _THRESHOLD_PUBLIC[:5]
    )
    return ThresholdPublicKey(
        n_modulus=n, e=e, threshold=threshold, players=players,
        verifier_base=verifier_base,
        verifier_keys={int(i): _unhex(v) for i, v in data["verifier_keys"].items()},
    )


def _write_private(path: Path, text: str) -> None:
    """Atomically replace ``path`` with ``text``, mode 0600."""
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    os.fchmod(fd, 0o600)  # O_CREAT leaves a stale file's mode as it was
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
    tmp.replace(path)
