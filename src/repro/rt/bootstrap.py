"""The live deployment: its spec, its one replica group, its ports.

:class:`RtConfig` is the JSON-serialisable description of one live
deployment: the launcher writes it to a spec file, every spawned node
reads it back, and both sides derive the same
:class:`~repro.system.config.SystemConfig`, layout and port map.

A live fleet runs one replica group — the deployment the paper measures.
Every process computes the fleet's key-free layout from the spec alone
(:func:`fleet_layout`); only the dealer generates keys
(:func:`generate_fleet`, once per deployment, in the launcher or the
compose fleet's spec-init step), and each node loads just its own from
the key file the dealer wrote for it (:mod:`repro.rt.keys`). The layout,
the keys and the protocol objects come from the assembly the simulation
uses (:mod:`repro.system.assembly`); scale-out by independent groups
exists only in the simulation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Sequence, Tuple

from repro.costs import FREE
from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry
from repro.system.assembly import SystemLayout, SystemMaterial, generate_material, system_layout
from repro.system.config import ProtocolConfig, SystemConfig, flag, project


# -- live deployment spec ---------------------------------------------------------


#: ``""`` keeps the closed-loop driver; the rest are
#: :data:`repro.load.arrivals.PROFILES` (not imported: every node process
#: reads this module, and only an open-loop client needs that package).
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
        return cls(**exact_keys(data, [f.name for f in fields(cls)], "spec"))


def exact_keys(data: Any, names: Sequence[str], what: str) -> Dict[str, Any]:
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


def fleet_layout(config: RtConfig) -> SystemLayout:
    """The fleet's key-free layout: what a node, an observer or the
    compose generator computes from the spec alone."""
    return system_layout(config.system_config())


def generate_fleet(config: RtConfig) -> SystemMaterial:
    """The live dealer: :func:`fleet_layout` with every key generated.

    Runs once per deployment — in the launcher, or the compose fleet's
    spec-init step — and reaches the nodes only as the key files
    :func:`~repro.rt.keys.write_key_files` deals from it.
    """
    return generate_material(config.system_config(), RngRegistry(config.seed))


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

