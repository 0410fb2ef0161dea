"""Deployment configuration: one declaration per knob, shared by the
simulation (:class:`SystemConfig`) and the live runtime
(:class:`~repro.rt.bootstrap.RtConfig`)."""

from __future__ import annotations

import argparse
import enum
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Type, TypeVar

from repro.costs import CostModel
from repro.errors import ConfigurationError

C = TypeVar("C")


class Mode(enum.Enum):
    """Which system to deploy."""

    SPIRE = "spire"                    # Spire 1.2 baseline: everyone executes
    CONFIDENTIAL = "confidential"      # Confidential Spire: DC replicas store only


def flag(option: str, help: Optional[str] = None, **kwargs: Any) -> Dict[str, Any]:
    """Field metadata that makes a knob a CLI option (see
    :func:`add_config_flags`): spelling, help, and any further
    ``add_argument`` keywords (``choices``, ``metavar``)."""
    return {"flag": option, "help": help, **kwargs}


@dataclass(frozen=True)
class ProtocolConfig:
    """The knobs that fix a deployment on either substrate.

    ``f`` and the number of data centers give ``k``, ``n = 3f + 2k + 1``
    and the per-site placement; the rest are the checkpoint periods,
    Prime's timers, and the mechanical choices (batching, store policy)
    both substrates honour. Declared once here, with all their validation;
    :class:`SystemConfig` and :class:`~repro.rt.bootstrap.RtConfig` add
    only what is particular to their substrate.
    """

    mode: Mode = field(default=Mode.CONFIDENTIAL, metadata=flag("--mode"))
    f: int = field(default=1, metadata=flag("--f"))
    data_centers: int = field(default=2, metadata=flag("--data-centers"))
    seed: int = field(default=1, metadata=flag("--seed"))

    # ShardLab: number of independent replica groups. 1 is the classic
    # single-group deployment (trace-byte-identical to pre-shard builds);
    # S > 1 partitions the client keyspace across S groups, each a full
    # Prime deployment (own threshold groups, own stores, own key-renewal
    # schedule) with namespaced hostnames (``s0.`` ...), fronted by the
    # deterministic :class:`~repro.shard.shardmap.ShardMap`.
    shards: int = field(default=1, metadata=flag(
        "--shards", "independent replica groups; clients are routed to "
                    "their home shard"))

    # Workload (Section VII: ten substations at 1 update/s each).
    num_clients: int = field(default=10, metadata=flag("--clients"))
    update_interval: float = field(default=1.0, metadata=flag("--interval"))

    # Protocol parameters.
    checkpoint_interval: int = 100
    pp_interval: float = 0.026
    vc_timeout: float = 0.100
    failover_delay: float = 0.120

    # Durable storage (repro.store): fsync policy and segment size of the
    # per-replica FileStore, wherever the substrate roots it.
    store_fsync: str = "batch"
    store_segment_bytes: int = 1 << 20

    # CompactLab. ``checkpoint_delta_interval`` = N > 1 makes only every
    # N-th checkpoint a full snapshot, with codec-encoded state deltas
    # between (0/1 keeps every checkpoint full — the legacy behaviour, and
    # the trace-byte-identity default). ``store_compaction_interval`` > 0
    # arms a background tick every that many (simulated or wall) seconds
    # that rewrites up to ``store_compaction_budget`` sealed log segments,
    # dropping below-stable and replayed-duplicate records.
    checkpoint_delta_interval: int = field(default=0, metadata=flag(
        "--delta-interval", "full checkpoint every N-th checkpoint, "
                            "encrypted state deltas between (0 = every "
                            "checkpoint is a full snapshot)"))
    store_compaction_interval: float = field(default=0.0, metadata=flag(
        "--compaction-interval", "seconds between background log-compaction "
                                 "ticks (0 = compaction off)"))
    store_compaction_budget: int = field(default=2, metadata=flag(
        "--compaction-budget", "sealed segments rewritten per compaction tick"))

    # Batched introduction (BatchLab). Size 1 is the singleton path and
    # stays trace-byte-identical to pre-batching builds; sizes > 1
    # aggregate up to that many updates per proposer window under one
    # threshold signature over a Merkle root.
    intro_batch_size: int = field(default=1, metadata=flag(
        "--batch-size", "intro batch size (1 = singleton path)"))
    intro_batch_window: float = field(default=0.02, metadata=flag(
        "--batch-window", "intro batch flush window in seconds"))

    # Crypto worker processes (repro.crypto.pool). 0 keeps threshold
    # sign/combine in-process (the sim default); > 0 builds a CryptoPool
    # with that many workers — results are bit-identical either way.
    crypto_workers: int = field(default=0, metadata=flag(
        "--crypto-workers", "crypto worker processes per replica "
                            "(0 = in-process signing)"))

    #: (field, smallest valid value); subclasses append their own.
    _MINIMUM = (
        ("f", 1), ("data_centers", 1), ("num_clients", 1), ("shards", 1),
        ("intro_batch_size", 1), ("crypto_workers", 0),
        ("checkpoint_delta_interval", 0), ("store_compaction_interval", 0),
        ("store_compaction_budget", 1),
    )

    def __post_init__(self) -> None:
        try:
            # Accept the Mode or its string (spec files, CLI, keyword callers).
            object.__setattr__(self, "mode", Mode(self.mode))
        except ValueError:
            raise ConfigurationError(
                f"mode must be one of {[m.value for m in Mode]}, got {self.mode!r}"
            ) from None
        for name, minimum in self._MINIMUM:
            if getattr(self, name) < minimum:
                raise ConfigurationError(
                    f"{name} must be at least {minimum}, got {getattr(self, name)}"
                )
        if self.data_centers > 3:
            raise ConfigurationError("1-3 data centers supported")
        if self.shards > 64:
            raise ConfigurationError("1-64 shards supported")
        if self.shards > self.num_clients:
            raise ConfigurationError(
                f"{self.shards} shards need at least {self.shards} clients "
                f"(got {self.num_clients}); every shard must own a slice of "
                "the client keyspace"
            )
        # The distribution rule (Section IV-B / Table I) is checked here so
        # an infeasible (f, k, S) combination fails at config construction
        # with a clear error, not mid-way through material generation.
        validate_distribution(self.mode, self.f, self.data_centers)
        if self.store_fsync not in ("always", "batch", "never"):
            raise ConfigurationError(
                f"store_fsync must be always/batch/never, got {self.store_fsync!r}"
            )
        if self.intro_batch_window <= 0:
            raise ConfigurationError("intro_batch_window must be positive")

    @property
    def confidential(self) -> bool:
        return self.mode is Mode.CONFIDENTIAL


@dataclass(frozen=True)
class SystemConfig(ProtocolConfig):
    """Everything needed to build one simulated deployment.

    Defaults reproduce the paper's evaluation setup: two control centers
    and two data centers on the emulated East Coast topology, ten clients
    submitting one update per second each.
    """

    # The simulated one-way routing-tier cost charged per routed
    # submission; it only applies when shards > 1.
    route_delay: float = 0.0005

    # Key renewal (Section V-D); off by default, as in the paper's
    # implementation ("not yet implemented" in Spire; we implement it and
    # evaluate it in the A3 ablation).
    key_renewal_enabled: bool = field(default=False, metadata=flag("--key-renewal"))
    key_validity: int = 100
    key_slack: int = 10

    # Residual random loss on inter-site links (after Spines rerouting).
    wan_loss_probability: float = field(default=0.0, metadata=flag(
        "--loss", "WAN loss probability"))

    # State-transfer flow control (None = the paper prototype's
    # single-burst responses, which produced its 200-450 ms spikes).
    xfer_chunk_bytes: Optional[int] = 65536
    xfer_chunk_interval: float = 0.004

    # None keeps the volatile MemoryStore (the deterministic default;
    # traces byte-identical across seeds); a directory path gives every
    # replica a FileStore under <store_dir>/<host>, enabling crash
    # recovery from disk.
    store_dir: Optional[str] = None

    # Cryptographic sizes. Small-but-real keys keep pure-Python wall time
    # tolerable; simulated costs come from `costs`, not from wall time.
    rsa_bits: int = 512
    threshold_bits: int = 384

    # Hot-path caches (PerfLab). Both are mechanical optimizations:
    # frame caching memoizes per-message wire sizes/frames on object
    # identity, verify caching memoizes signature checks on
    # (modulus, digest, signature). Sim traces are byte-identical with
    # the caches on or off (test enforced); the toggles exist for the
    # benchmark harness and for bisecting.
    frame_cache_enabled: bool = True
    verify_cache_enabled: bool = True

    costs: CostModel = field(default_factory=CostModel)
    tracing: bool = True
    # Observability: when False the deployment wires the null registry and
    # every instrumentation site degrades to a no-op attribute access.
    metrics_enabled: bool = True

    _MINIMUM = ProtocolConfig._MINIMUM + (("route_delay", 0),)


def project(source: Any, target: Type[C], **overrides: Any) -> C:
    """``target`` built from every field ``source`` shares with it by name.

    The one way a config is derived from another: a knob declared on both
    sides is carried without being named, so it cannot be forgotten.
    """
    names = {f.name for f in fields(target)}
    shared = {
        f.name: getattr(source, f.name) for f in fields(source) if f.name in names
    }
    return target(**{**shared, **overrides})


# -- CLI options generated from the fields ------------------------------------------


def _dest(spec: Any) -> str:
    """The argparse destination of a flagged field: ``--no-x`` switches a
    default-on field off under the field's own name; any other option is
    stored under its spelling."""
    if spec.default is True:
        return spec.name
    return spec.metadata["flag"].lstrip("-").replace("-", "_")


def add_config_flags(
    parser: argparse.ArgumentParser,
    cls: type,
    names: Iterable[str],
    help: Optional[Mapping[str, str]] = None,
) -> None:
    """One option per named field of ``cls``: spelling, help and choices
    from the field's :func:`flag` metadata, type and default from ``cls``
    itself (so a subclass's live-scaled default is the option's default).
    ``help`` overrides the text for single fields of this one parser."""
    by_name = {f.name: f for f in fields(cls)}
    for name in names:
        spec = by_name[name]
        kwargs = dict(spec.metadata)
        option = kwargs.pop("flag")
        if help and name in help:
            kwargs["help"] = help[name]
        default = spec.default
        if isinstance(default, bool):
            kwargs["action"] = "store_false" if default else "store_true"
        elif isinstance(default, enum.Enum):
            kwargs.update(default=default.value,
                          choices=[member.value for member in type(default)])
        else:
            kwargs["default"] = default
            if not isinstance(default, str):
                kwargs["type"] = type(default)
        parser.add_argument(option, dest=_dest(spec), **kwargs)


def config_from_args(
    cls: Type[C], args: argparse.Namespace, names: Iterable[str], **overrides: Any
) -> C:
    """``cls`` with the named fields read back from the options
    :func:`add_config_flags` generated for them."""
    by_name = {f.name: f for f in fields(cls)}
    values = {}
    for name in names:
        value = getattr(args, _dest(by_name[name]))
        if isinstance(by_name[name].default, enum.Enum):
            value = type(by_name[name].default)(value)
        values[name] = value
    return cls(**{**values, **overrides})


def config_argv(config: Any, names: Iterable[str]) -> List[str]:
    """The command-line spelling of ``config``'s named fields — the
    inverse of :func:`config_from_args`, for manifests that invoke a
    generated parser."""
    by_name = {f.name: f for f in fields(config)}
    argv: List[str] = []
    for name in names:
        value = getattr(config, name)
        argv += [by_name[name].metadata["flag"],
                 str(value.value if isinstance(value, enum.Enum) else value)]
    return argv


def validate_distribution(mode: Mode, f: int, data_centers: int) -> None:
    """Reject (f, k, S) combinations the replica-distribution rule cannot
    satisfy, with the derived parameters spelled out in the error.

    ``plan_confidential``/``plan_spire`` already refuse infeasible inputs,
    but only when the plan is computed — deep inside material generation.
    Re-deriving the plan here surfaces the same failures at
    :class:`SystemConfig` construction, and cross-checks the arithmetic the
    rest of the system depends on (n = 3f + 2k + 1, quorum coverage with a
    site down).
    """
    from repro.core.distribution import plan_confidential, plan_spire

    sites = 2 + data_centers
    try:
        if mode is Mode.CONFIDENTIAL:
            plan = plan_confidential(f, data_centers)
        else:
            plan = plan_spire(f, data_centers)
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"no replica distribution satisfies f={f} over S={sites} sites: {exc}"
        ) from exc
    if plan.n != 3 * plan.f + 2 * plan.k + 1:
        raise ConfigurationError(
            f"distribution for f={f}, S={sites} is inconsistent: "
            f"n={plan.n} != 3f+2k+1={3 * plan.f + 2 * plan.k + 1}"
        )
    if max(plan.counts) > plan.k - 1:
        raise ConfigurationError(
            f"distribution for f={f}, S={sites} places {max(plan.counts)} "
            f"replicas in one site, exceeding the k-1={plan.k - 1} bound"
        )
    # Losing the largest site plus f intrusions must still leave a quorum.
    if plan.n - max(plan.counts) - plan.f < plan.quorum:
        raise ConfigurationError(
            f"distribution for f={f}, S={sites} cannot form a quorum of "
            f"{plan.quorum} with its largest site down and f compromised"
        )
