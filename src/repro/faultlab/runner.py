"""Execute fault schedules against freshly built deployments.

:func:`run_schedule` is FaultLab's core loop: build a deployment from the
schedule's seed, attach the invariant checker, install every fault window
as kernel callbacks, run a client workload through the turbulence, let the
system quiesce, and score the run. Because the simulation is fully
deterministic, the same :class:`~repro.faultlab.schedule.FaultSchedule`
against the same :class:`FaultLabConfig` always yields the same
:class:`FaultLabResult` — which is what makes sweeping, replaying, and
shrinking meaningful.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faultlab.invariants import InvariantChecker, InvariantReport
from repro.faultlab.schedule import (
    STORE_KINDS,
    FaultSchedule,
    ScheduleSpace,
    generate_schedule,
    space_for,
    validate_schedule,
)
from repro.system.adversary import Adversary, Behavior
from repro.system.builder import build
from repro.system.config import Mode, SystemConfig, flag, project


@dataclass(frozen=True)
class FaultLabConfig:
    """Sizing for FaultLab runs: small enough to sweep, big enough to
    exercise checkpoints, recovery, and state transfer."""

    mode: Mode = field(default=Mode.CONFIDENTIAL, metadata=flag("--mode"))
    f: int = field(default=1, metadata=flag("--f"))
    data_centers: int = 2
    num_clients: int = 3
    update_interval: float = 0.35
    checkpoint_interval: int = 25
    key_renewal_enabled: bool = field(default=False, metadata=flag(
        "--key-renewal", "enable key renewal (checks bounded disclosure)"))

    #: Faults start after the system has warmed up...
    fault_start: float = 1.5
    #: ...and every fault window closes by this virtual time.
    horizon: float = 9.0
    #: Extra quiet time after the horizon for recovery/catch-up/liveness.
    quiescence: float = 8.0
    #: Largest number of events a generated schedule may carry.
    max_events: int = 6

    #: Give every replica a FileStore (in a run-scoped temp directory) even
    #: when the schedule carries no storage faults. Off by default: the
    #: sweep's MemoryStore runs are the trace-identity baseline.
    durable_store: bool = False
    #: fsync policy for FaultLab file stores. The sim's crash model never
    #: loses the page cache, so ``never`` keeps sweeps fast.
    store_fsync: str = "never"

    #: BatchLab: introduction batch size. 1 sweeps the singleton path
    #: (the trace-identity baseline); > 1 sweeps the batched intro and
    #: response pipelines under the same fault schedules.
    intro_batch_size: int = field(default=1, metadata=flag(
        "--batch-size", "intro batch size to sweep under (1 = singleton path)"))

    #: WatchLab: attach the online anomaly-detector suite to the run and
    #: score every injected fault against the health events it raises
    #: (fault→detection latency lands in ``faultlab.detection_latency``).
    #: Off by default: the bare sweep is the trace-identity baseline.
    detectors: bool = field(default=False, metadata=flag(
        "--detect", "run the online anomaly detectors and score "
                    "fault -> detection coverage per seed"))

    #: CompactLab: delta-checkpoint chain length and background-compaction
    #: tick. Both off by default (the trace-identity baseline); the
    #: dedicated compaction/delta crash kinds turn them on explicitly so
    #: there are artifacts to damage.
    checkpoint_delta_interval: int = 0
    store_compaction_interval: float = 0.0

    def system_config(self, seed: int) -> SystemConfig:
        return project(self, SystemConfig, seed=seed)


@dataclass
class MetricWindow:
    """Counter deltas over one fault event's window.

    ``deltas`` maps ``name{label=value}`` to the counter's increase between
    the snapshot at the window's open and the one at its close (zero-delta
    counters are dropped). Lets a sweep answer "what did the leader-site
    isolation *cost*" — retransmits, view changes, drops — per window.
    """

    label: str
    start: float
    end: float
    deltas: Dict[str, float] = field(default_factory=dict)

    def describe(self, top: int = 6) -> str:
        ranked = sorted(self.deltas.items(), key=lambda kv: -abs(kv[1]))[:top]
        body = ", ".join(f"{name}+{delta:g}" for name, delta in ranked)
        return f"[{self.start:.2f}..{self.end:.2f}] {self.label}: {body or 'no change'}"


@dataclass
class FaultLabResult:
    """One schedule's verdict."""

    schedule: FaultSchedule
    report: InvariantReport
    end_time: float
    trace_events: int
    deployment: object = field(default=None, repr=False)
    adversary: object = field(default=None, repr=False)
    metric_windows: Tuple[MetricWindow, ...] = ()
    #: WatchLab (lab.detectors): the health events the online detector
    #: suite raised during the run, and each injected fault scored
    #: against them (with fault→detection latency).
    health_events: Tuple = ()
    detections: Tuple = ()

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def detected_faults(self) -> int:
        return sum(1 for match in self.detections if match.detected)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = (
            f"{status} seed={self.schedule.seed} events={len(self.schedule)} "
            f"t_end={self.end_time:.1f} :: {self.report.summary().splitlines()[0]}"
        )
        if self.detections:
            line += f" :: detected {self.detected_faults}/{len(self.detections)} faults"
        return line


def schedule_for_seed(seed: int, lab: Optional[FaultLabConfig] = None) -> FaultSchedule:
    """Generate the schedule a sweep would run for ``seed``."""
    lab = lab or FaultLabConfig()
    deployment = build(lab.system_config(seed))
    space = space_for(
        deployment,
        start=lab.fault_start,
        horizon=lab.horizon,
        max_events=lab.max_events,
    )
    return generate_schedule(seed, space)


def run_schedule(
    schedule: FaultSchedule,
    lab: Optional[FaultLabConfig] = None,
    keep_deployment: bool = False,
    detector_config=None,
) -> FaultLabResult:
    """Replay ``schedule`` against a fresh deployment and check invariants.

    With ``lab.detectors`` (or an explicit ``detector_config``, a
    :class:`~repro.obs.watch.detectors.DetectorConfig`), the online
    anomaly-detector suite rides along on the deployment's tracer and the
    result carries its health events plus a per-fault detection verdict.
    The suite only *reads* the tracer, so detector runs replay the exact
    same traces as bare ones.
    """
    lab = lab or FaultLabConfig()
    validate_schedule(schedule)

    config = lab.system_config(schedule.seed)
    # Storage faults need real files to damage; an explicit durable_store
    # opt-in gets them too. Everything else keeps the MemoryStore, whose
    # traces are the byte-identity baseline for existing seeds.
    needs_store = lab.durable_store or any(
        event.kind in STORE_KINDS for event in schedule.events
    )
    tempdir: Optional[str] = None
    if needs_store and config.store_dir is None:
        tempdir = tempfile.mkdtemp(prefix="faultlab-store-")
        config = dataclasses.replace(config, store_dir=tempdir)

    deployment = build(config)
    adversary = Adversary(deployment)
    quiesce_at = max(schedule.clear_time, lab.horizon)
    checker = InvariantChecker(deployment, adversary, quiesce_at=quiesce_at).attach()

    # Snapshot timers go in before the fault callbacks so that, at the
    # same virtual instant, the registry is read *before* the fault flips —
    # the kernel drains same-time events in insertion order.
    windows = _install_metric_windows(schedule, deployment)
    _install_events(schedule, deployment, adversary)

    suite = None
    if lab.detectors or detector_config is not None:
        from repro.obs.watch.detectors import DetectorSuite

        suite = DetectorSuite(
            now_fn=lambda: deployment.kernel.now, config=detector_config
        ).attach(deployment.tracer)
        suite.watch_hosts(deployment.replicas.keys())
        suite.restrict_exposure(deployment.data_center_hosts)

    try:
        deployment.start()
        end_time = quiesce_at + lab.quiescence
        # Clients keep submitting through the faults and for a short stretch
        # past quiescence, so the liveness invariant has fresh updates to watch
        # complete; the remaining quiet time lets retransmissions drain.
        deployment.start_workload(duration=quiesce_at + lab.quiescence * 0.4)
        deployment.run(until=end_time)

        report = checker.finish()
        health_events: Tuple = ()
        detections: Tuple = ()
        if suite is not None:
            from repro.obs.watch.detectors import match_detections

            suite.poll(end_time)
            health_events = tuple(suite.drain())
            detections = tuple(
                match_detections(schedule.events, health_events)
            )
            latency_hist = deployment.metrics.histogram("faultlab.detection_latency")
            for match in detections:
                if match.latency is not None:
                    latency_hist.observe(match.latency)
            suite.detach()
        return FaultLabResult(
            schedule=schedule,
            report=report,
            end_time=end_time,
            trace_events=len(deployment.tracer.events),
            deployment=deployment if keep_deployment else None,
            adversary=adversary if keep_deployment else None,
            metric_windows=tuple(_finalize_metric_windows(windows, deployment)),
            health_events=health_events,
            detections=detections,
        )
    finally:
        if needs_store:
            for replica in deployment.replicas.values():
                replica.store.close()
        if tempdir is not None and not keep_deployment:
            shutil.rmtree(tempdir, ignore_errors=True)


def sweep(
    seeds: Iterable[int],
    lab: Optional[FaultLabConfig] = None,
    on_result=None,
) -> List[FaultLabResult]:
    """Run one generated schedule per seed; ``on_result`` (if given) is
    called after each run, e.g. for progress printing."""
    lab = lab or FaultLabConfig()
    results = []
    for seed in seeds:
        result = run_schedule(schedule_for_seed(seed, lab), lab)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


def plant_leak(schedule: FaultSchedule, at: Optional[float] = None,
               host: Optional[str] = None) -> FaultSchedule:
    """Add a deliberate confidentiality breach to ``schedule``.

    Used to validate the checker end-to-end: the resulting schedule MUST
    fail the confidentiality invariant, and shrinking it MUST retain the
    ``leak`` event.
    """
    from repro.faultlab.schedule import make_event

    leak_at = at if at is not None else min(schedule.horizon - 1.0, 4.0)
    event = make_event(leak_at, "leak", host or "")
    return schedule.with_event(event)


# ---------------------------------------------------------------------------
# Metric windows
# ---------------------------------------------------------------------------

def _metric_key_label(key) -> str:
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def _window_bounds(event) -> Tuple[float, float]:
    if event.until is not None:
        return event.at, event.until
    if event.kind == "recover" or event.kind in STORE_KINDS:
        return event.at, event.at + float(event.param("duration", 3.0))
    # Instant faults (e.g. leak): watch one second of aftermath.
    return event.at, event.at + 1.0


def _install_metric_windows(schedule: FaultSchedule, deployment) -> List[dict]:
    """Schedule counter snapshots at each fault window's open and close."""
    if not deployment.metrics.enabled:
        return []
    windows: List[dict] = []
    for event in schedule.events:
        start, end = _window_bounds(event)
        record = {
            "label": f"{event.kind} {event.target}".strip(),
            "start": start,
            "end": end,
            "before": None,
            "after": None,
        }

        def snap(record, slot):
            record[slot] = deployment.metrics.counter_values()

        deployment.kernel.call_at(start, snap, record, "before")
        deployment.kernel.call_at(end, snap, record, "after")
        windows.append(record)
    return windows


def _finalize_metric_windows(windows: List[dict], deployment) -> List[MetricWindow]:
    results: List[MetricWindow] = []
    for record in windows:
        before = record["before"]
        if before is None:
            continue  # window opened after the run ended
        # A close past the end of the run reads the final values instead.
        after = record["after"] or deployment.metrics.counter_values()
        # Iterate the *after* snapshot: counters born inside the window
        # (a first view change, a new drop reason) have no "before" entry
        # and count from zero.
        deltas = {
            _metric_key_label(key): value - before.get(key, 0.0)
            for key, value in sorted(after.items())
            if value != before.get(key, 0.0)
        }
        results.append(
            MetricWindow(
                label=record["label"],
                start=record["start"],
                end=record["end"],
                deltas=deltas,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Event installation
# ---------------------------------------------------------------------------

def _install_events(schedule: FaultSchedule, deployment, adversary: Adversary) -> None:
    kernel = deployment.kernel
    for event in schedule.events:
        if event.kind == "compromise":
            behaviors = tuple(Behavior(b) for b in event.param("behaviors"))
            kernel.call_at(
                event.at, adversary.compromise, event.target, *behaviors
            )
            kernel.call_at(event.until, adversary.release, event.target)
        elif event.kind == "isolate":
            kernel.call_at(event.at, deployment.attacks.isolate_site, event.target)
            kernel.call_at(event.until, deployment.attacks.reconnect_site, event.target)
        elif event.kind == "degrade":
            kernel.call_at(
                event.at,
                deployment.attacks.degrade_site,
                event.target,
                event.param("bandwidth_divisor", 10.0),
                event.param("added_latency", 0.020),
                event.param("loss", 0.02),
            )
            kernel.call_at(event.until, deployment.attacks.restore_site, event.target)
        elif event.kind == "loss":
            probability = event.param("probability", 0.05)
            base = deployment.config.wan_loss_probability
            kernel.call_at(event.at, deployment.network.set_wan_loss, probability)
            kernel.call_at(event.until, deployment.network.set_wan_loss, base)
        elif event.kind == "skew":
            kernel.call_at(
                event.at,
                deployment.network.set_delivery_skew,
                event.target,
                event.param("skew", 0.02),
            )
            kernel.call_at(
                event.until, deployment.network.clear_delivery_skew, event.target
            )
        elif event.kind == "recover":
            deployment.recovery.schedule_recovery(
                event.target, event.at, event.param("duration", 3.0)
            )
        elif event.kind in STORE_KINDS:
            # Crash the replica, then damage its durable store while it is
            # down; the recovery's respawn must detect the damage and fall
            # back to network transfer for whatever was lost. Damage is
            # registered AFTER schedule_recovery so the same-instant kernel
            # drain runs go_down first (insertion order).
            deployment.recovery.schedule_recovery(
                event.target, event.at, float(event.param("duration", 3.0))
            )
            kernel.call_at(event.at, _damage_store, deployment, event)
        elif event.kind == "leak":
            host = event.target or deployment.on_premises_hosts[0]
            kernel.call_at(event.at, adversary.exfiltrate_plaintext, host)
        else:  # pragma: no cover - validate_schedule rejects unknown kinds
            raise ConfigurationError(f"unknown fault kind {event.kind!r}")


def _damage_store(deployment, event) -> None:
    """Apply a storage fault to the target replica's on-disk store.

    No-ops (with ``applied=False`` in the trace) against a MemoryStore —
    volatile stores have no files to damage."""
    replica = deployment.replicas[event.target]
    store = replica.store
    applied = False
    if event.kind == "torn_write":
        damage = getattr(store, "damage_torn_write", None)
        if damage is not None:
            applied = damage(int(event.param("bytes", 64))) is not None
    elif event.kind == "crash_during_compaction":
        damage = getattr(store, "damage_crash_during_compaction", None)
        if damage is not None:
            applied = damage(int(event.param("stage", 2))) is not None
    elif event.kind == "crash_mid_delta":
        damage = getattr(store, "damage_crash_mid_delta", None)
        if damage is not None:
            applied = damage() is not None
    else:  # corrupt_segment
        damage = getattr(store, "damage_corrupt_segment", None)
        if damage is not None:
            offset = event.param("offset")
            applied = damage(int(offset) if offset is not None else None) is not None
    replica.trace("fault.store-damage", kind=event.kind, applied=applied)
