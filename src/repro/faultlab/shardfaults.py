"""FaultLab for sharded deployments: shard-scoped faults and verdicts.

ShardLab (``repro.shard``) builds S replica groups inside one virtual
world: a shared kernel and tracer, per-shard networks and Prime
instances. This module turns FaultLab loose on that topology:

- **shard-scoped fault kinds** (explicit-only, see
  :data:`~repro.faultlab.schedule.SHARD_KINDS`): ``shard_kill_proposers``
  crash-recovers a shard's lead proposers back-to-back;
  ``shard_partition`` isolates one of a shard's on-premises sites for a
  window — cross-shard commits into the shard stall mid-flight and must
  drain after the reconnect;
- **per-shard invariant checking**: one
  :class:`~repro.faultlab.invariants.InvariantChecker` per shard, fed
  only that shard's trace events (hostnames carry the ``sN.`` namespace,
  so one shared tracer still yields per-shard verdicts);
- **cross-shard consistency**: after quiescence, every intent the
  coordinator accepted must have committed, and every cross-written key
  must hold the *same* last-writer-wins version tag (and value) on every
  shard that holds it — the sharded analogue of the single-group
  convergence check.

:func:`run_shard_schedule` is deterministic the same way
:func:`~repro.faultlab.runner.run_schedule` is: one schedule against one
config always yields the same verdict, which is what makes the 20-seed
shard sweep in CI meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faultlab.invariants import (
    InvariantChecker,
    InvariantReport,
    Violation,
)
from repro.faultlab.schedule import (
    SHARD_KINDS,
    FaultEvent,
    FaultSchedule,
    make_event,
    validate_schedule,
)
from repro.shard.builder import ShardedDeployment, build_sharded
from repro.system.adversary import Adversary
from repro.system.config import Mode, SystemConfig, project


@dataclass(frozen=True)
class ShardFaultLabConfig:
    """Sizing for sharded FaultLab runs.

    Small enough to sweep 20 seeds in CI, big enough that every shard
    keeps a few clients and the cross-shard path stays busy through the
    fault windows (``cross_shard_every``)."""

    mode: Mode = Mode.CONFIDENTIAL
    shards: int = 2
    f: int = 1
    data_centers: int = 2
    #: 8 clients keeps the rendezvous map non-degenerate (every shard gets
    #: at least one client) across the whole CI seed range 1..20.
    num_clients: int = 8
    update_interval: float = 0.35
    checkpoint_interval: int = 25

    #: Every Nth update per client is a cross-shard write (see
    #: :meth:`repro.shard.builder.ShardedDeployment.start_workload`).
    cross_shard_every: int = 4

    #: Faults start after warm-up and close by the horizon; the quiet
    #: stretch after it lets recoveries, view changes, and stalled
    #: cross-shard commits drain before scoring.
    fault_start: float = 1.5
    horizon: float = 9.0
    quiescence: float = 8.0
    max_events: int = 3

    def system_config(self, seed: int) -> SystemConfig:
        return project(self, SystemConfig, seed=seed)


class ShardInvariantChecker(InvariantChecker):
    """An invariant checker that sees only one shard's trace events.

    Sharded deployments share a single tracer; hostnames disambiguate
    (``s0.cc-a-r0``, ``s0.proxy-client-02``). Filtering on the namespace
    keeps e.g. ordering-safety from comparing two shards' independent
    batch sequence numbers against each other."""

    def __init__(self, deployment, adversary=None, quiesce_at=None,
                 namespace: str = ""):
        super().__init__(deployment, adversary, quiesce_at=quiesce_at)
        self.namespace = namespace

    def _on_event(self, event) -> None:
        if self.namespace and not event.host.startswith(self.namespace):
            return
        super()._on_event(event)


@dataclass
class ShardFaultResult:
    """One shard schedule's verdict: per-shard reports plus the
    cross-shard obligations no single group can check."""

    schedule: FaultSchedule
    reports: Dict[int, InvariantReport]
    cross_violations: Tuple[Violation, ...]
    cross_committed: int
    cross_rejected: int
    end_time: float
    deployment: Optional[ShardedDeployment] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.cross_violations and all(
            report.ok for report in self.reports.values()
        )

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        per_shard = " ".join(
            f"s{shard}:{'ok' if report.ok else len(report.violations)}"
            for shard, report in sorted(self.reports.items())
        )
        line = (
            f"{status} seed={self.schedule.seed} events={len(self.schedule)} "
            f"xs={self.cross_committed}/{self.cross_committed + self.cross_rejected} "
            f"[{per_shard}]"
        )
        if self.cross_violations:
            line += "".join(
                "\n  " + violation.describe() for violation in self.cross_violations
            )
        for shard, report in sorted(self.reports.items()):
            if not report.ok:
                line += "".join(
                    f"\n  s{shard} " + v.describe() for v in report.violations
                )
        return line


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------

def generate_shard_schedule(
    seed: int, lab: Optional[ShardFaultLabConfig] = None
) -> FaultSchedule:
    """A seeded timeline of shard-scoped faults.

    Constraints by construction: at most one fault window is open per
    shard at a time (so a partitioned shard is never also mid-recovery),
    and every window closes by the horizon. The RNG is salted with a
    string so shard schedules never alias the classic per-seed pool."""
    lab = lab or ShardFaultLabConfig()
    rng = random.Random(f"shardfaults-{seed}")
    events: List[FaultEvent] = []
    open_windows: Dict[int, List[Tuple[float, float]]] = {
        shard: [] for shard in range(lab.shards)
    }

    count = rng.randint(1, lab.max_events)
    for _ in range(count):
        kind = rng.choice(SHARD_KINDS)
        shard = rng.randrange(lab.shards)
        window = _fit_shard_window(rng, lab, open_windows[shard])
        if window is None:
            continue
        at, until = window
        open_windows[shard].append(window)
        if kind == "shard_partition":
            events.append(
                make_event(
                    at, "shard_partition", f"s{shard}", until,
                    site_index=rng.randrange(2),
                )
            )
        else:  # shard_kill_proposers
            kills = rng.choice((1, 2))
            stagger = 0.6
            duration = round(
                max(0.8, (until - at - stagger * (kills - 1)) / kills), 2
            )
            events.append(
                make_event(
                    at, "shard_kill_proposers", f"s{shard}",
                    count=kills, duration=duration, stagger=stagger,
                )
            )

    events.sort(key=lambda e: (e.at, e.kind, e.target))
    schedule = FaultSchedule(seed=seed, horizon=lab.horizon, events=tuple(events))
    validate_schedule(schedule)
    return schedule


def _fit_shard_window(
    rng: random.Random,
    lab: ShardFaultLabConfig,
    taken: List[Tuple[float, float]],
    attempts: int = 8,
) -> Optional[Tuple[float, float]]:
    for _ in range(attempts):
        duration = rng.uniform(1.2, 3.0)
        latest_start = lab.horizon - duration
        if latest_start <= lab.fault_start:
            continue
        at = round(rng.uniform(lab.fault_start, latest_start), 2)
        until = round(min(at + duration, lab.horizon), 2)
        if not any(at < e and s < until for s, e in taken):
            return (at, until)
    return None


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _shard_index(event: FaultEvent, num_shards: int) -> int:
    index = int(event.target[1:])
    if index >= num_shards:
        raise ConfigurationError(
            f"{event.describe()} targets shard {index} but the deployment "
            f"has only {num_shards}"
        )
    return index


def install_shard_events(
    schedule: FaultSchedule, sharded: ShardedDeployment
) -> None:
    """Install shard-scoped fault windows as kernel callbacks."""
    kernel = sharded.kernel
    for event in schedule.events:
        if event.kind not in SHARD_KINDS:
            raise ConfigurationError(
                f"non-shard fault kind {event.kind!r} in a shard schedule; "
                "use repro.faultlab.runner for host/site-scoped kinds"
            )
        shard = sharded.shards[_shard_index(event, sharded.num_shards)]
        if event.kind == "shard_partition":
            sites = sorted({
                shard.site_of_host(host) for host in shard.on_premises_hosts
            })
            site = sites[int(event.param("site_index", 0)) % len(sites)]
            kernel.call_at(event.at, shard.attacks.isolate_site, site)
            kernel.call_at(event.until, shard.attacks.reconnect_site, site)
        else:  # shard_kill_proposers
            # The shard's proposers, lead first: Prime's view-0 leader is
            # the first on-premises host, so staggered kills always hit
            # the replica currently driving the shard's order.
            count = max(1, int(event.param("count", 1)))
            duration = float(event.param("duration", 3.0))
            stagger = float(event.param("stagger", 0.6))
            targets = list(shard.on_premises_hosts)[:count]
            for index, host in enumerate(targets):
                shard.recovery.schedule_recovery(
                    host, event.at + index * stagger, duration
                )


# ---------------------------------------------------------------------------
# Cross-shard consistency
# ---------------------------------------------------------------------------

def check_cross_shard_consistency(
    sharded: ShardedDeployment, now: float
) -> List[Violation]:
    """The obligations only the whole topology can check.

    1. the coordinator holds no in-flight intent (everything accepted
       before quiescence committed or was rejected);
    2. no commit was rejected by a participant (a rejection under a
       crash/partition schedule means a certificate failed to verify);
    3. every cross-written key carries the same version tag — and the
       same value — on every online shard that holds it (last-writer-wins
       convergence across the topology).
    """
    violations: List[Violation] = []
    coordinator = sharded.coordinator
    if coordinator is not None:
        for (cid, seq) in sorted(coordinator._pending):
            violations.append(Violation(
                "cross-shard-liveness", now, f"router-{cid}",
                f"intent ({cid}, seq {seq}) still in flight at end of run",
            ))
        for (cid, seq, shard, reason) in coordinator.rejected:
            violations.append(Violation(
                "cross-shard-certification", now, f"s{shard}",
                f"participant rejected commit ({cid}, seq {seq}): "
                f"{reason.decode('utf-8', 'replace')}",
            ))

    # key -> shard -> (tag, value), read from each shard's freshest online
    # executing replica (per-shard convergence is the liveness checker's
    # job; here one witness per shard suffices).
    tables: Dict[str, Dict[int, Tuple[tuple, Optional[str]]]] = {}
    for shard_id, shard in enumerate(sharded.shards):
        apps = [
            replica.app
            for replica in shard.executing_replicas()
            if replica.online
        ]
        if not apps:
            continue
        app = max(apps, key=lambda a: a.inner.executed_count)
        reader = getattr(app.inner, "get", None)
        for key, tag in app.versions.items():
            value = reader(key) if reader is not None else None
            tables.setdefault(key, {})[shard_id] = (tuple(tag), value)

    for key, holders in sorted(tables.items()):
        tags = {tag for tag, _value in holders.values()}
        if len(tags) > 1:
            violations.append(Violation(
                "cross-shard-consistency", now, "topology",
                f"key {key!r} diverged: "
                + ", ".join(
                    f"s{shard}={tag}" for shard, (tag, _v) in sorted(holders.items())
                ),
            ))
            continue
        values = {value for _tag, value in holders.values()}
        if len(values) > 1:
            violations.append(Violation(
                "cross-shard-consistency", now, "topology",
                f"key {key!r} agrees on tags but not values: "
                + ", ".join(
                    f"s{shard}={value!r}"
                    for shard, (_t, value) in sorted(holders.items())
                ),
            ))
    return violations


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run_shard_schedule(
    schedule: FaultSchedule,
    lab: Optional[ShardFaultLabConfig] = None,
    keep_deployment: bool = False,
) -> ShardFaultResult:
    """Replay a shard schedule against a fresh sharded deployment."""
    lab = lab or ShardFaultLabConfig()
    validate_schedule(schedule)

    sharded = build_sharded(lab.system_config(schedule.seed))
    quiesce_at = max(schedule.clear_time, lab.horizon)
    checkers: Dict[int, ShardInvariantChecker] = {}
    for shard_id, shard in enumerate(sharded.shards):
        checkers[shard_id] = ShardInvariantChecker(
            shard,
            Adversary(shard),
            quiesce_at=quiesce_at,
            namespace=f"s{shard_id}." if sharded.num_shards > 1 else "",
        ).attach()

    install_shard_events(schedule, sharded)

    try:
        sharded.start()
        end_time = quiesce_at + lab.quiescence
        sharded.start_workload(
            duration=quiesce_at + lab.quiescence * 0.4,
            cross_shard_every=lab.cross_shard_every,
        )
        sharded.run(until=end_time)

        reports = {
            shard_id: checker.finish()
            for shard_id, checker in sorted(checkers.items())
        }
        cross = check_cross_shard_consistency(sharded, end_time)
        coordinator = sharded.coordinator
        return ShardFaultResult(
            schedule=schedule,
            reports=reports,
            cross_violations=tuple(cross),
            cross_committed=len(coordinator.completed) if coordinator else 0,
            cross_rejected=len(coordinator.rejected) if coordinator else 0,
            end_time=end_time,
            deployment=sharded if keep_deployment else None,
        )
    finally:
        sharded.shutdown()


def shard_sweep(
    seeds: Iterable[int],
    lab: Optional[ShardFaultLabConfig] = None,
    on_result=None,
) -> List[ShardFaultResult]:
    """One generated shard schedule per seed (the CI 20-seed sweep)."""
    lab = lab or ShardFaultLabConfig()
    results = []
    for seed in seeds:
        result = run_shard_schedule(generate_shard_schedule(seed, lab), lab)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results
