"""The two workloads on the deterministic simulated substrate.

``sim_steady`` is Table II's shape (ten clients, one update per second
each, singleton introduction); ``sim_batched`` drives the batched
introduction path open-loop over a thousand multiplexed aliases. Latency
is virtual time and repeats bit-for-bit for equal (seed, seconds); CPU
per update and set-up time are real.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.faultlab.invariants import (
    CheckpointMonotonicityInvariant,
    ConfidentialityInvariant,
    InvariantChecker,
    OrderingSafetyInvariant,
)
from repro.load.generator import LoadConfig, LoadGenerator
from repro.system import build
from repro.system.config import Mode, SystemConfig

from layerbench import trace
from layerbench.layers import Instruments, counter_metrics, ratio, span_metrics
from layerbench.result import (
    MIN_TRACE_COVERAGE,
    SPAN_SUM_RANGE,
    RunResult,
    failed_check,
    latency_layer_metrics,
    percentiles_ms,
    range_check,
)

WORKLOADS = ("sim_steady", "sim_batched")

#: Virtual seconds of load per requested wall second (over all passes),
#: sized so a run takes about ``--seconds`` of wall time on the reference box.
VIRTUAL_PER_SECOND = {"sim_steady": 2.5, "sim_batched": 1.5}
#: Virtual seconds after the load ends for in-flight updates to complete.
DRAIN = {"sim_steady": 2.0, "sim_batched": 4.0}
BATCHED_RATE = 20.0
#: A timed run is this many identical passes (same seed, same virtual
#: duration, a fresh deployment each). Identical work lets the run report
#: the *fastest* pass's CPU per update — a neighbour on the host can only
#: slow a pass down — the median of the passes' set-up times, and check for
#: free that the simulation repeats bit for bit.
PASSES = 3
#: Throw-away build()+start() repeats before the passes, so ``setup_s`` is
#: the median of five samples and the first pass does not pay for imports.
EXTRA_SETUPS = 2


def config_for(workload: str, seed: int, tracing: bool) -> SystemConfig:
    common = dict(mode=Mode.CONFIDENTIAL, f=1, num_clients=10, update_interval=1.0,
                  tracing=tracing, seed=seed)
    if workload == "sim_batched":
        # vc_timeout: at the sim default (0.1 s, half the batch window) the
        # window itself trips the suspect-leader timer: 3-7 view changes in
        # 30 virtual seconds depending on the seed, CPU per update moving
        # 20 % with them, and on some seeds a lost update. 0.3 s has none.
        return SystemConfig(intro_batch_size=8, intro_batch_window=0.2,
                            checkpoint_interval=50, vc_timeout=0.3, **common)
    return SystemConfig(**common)


@dataclass
class Pass:
    """One execution of a sim workload, timed."""

    deployment: object
    latencies: List[float]
    fingerprint: str
    offered: int
    completed: int
    cpu_s: float
    wall_s: float
    setup_s: float
    recorder_self_s: float = 0.0
    invariants: Optional[object] = None

    @property
    def cpu_ms_per_update(self) -> float:
        return ratio(self.cpu_s, self.completed) * 1e3


def timed_setup(config: SystemConfig):
    """(started deployment, seconds build() + start() took)."""
    started = time.perf_counter()
    deployment = build(config)
    deployment.start()
    return deployment, time.perf_counter() - started


def run_pass(workload: str, seed: int, virtual_s: float, tracing: bool = False,
             recorder: Optional[trace.SpanRecorder] = None) -> Pass:
    deployment, setup_s = timed_setup(config_for(workload, seed, tracing))

    generator = None
    if workload == "sim_batched":
        generator = LoadGenerator(deployment, LoadConfig(
            profile="poisson", rate=BATCHED_RATE, aliases=1000, duration=virtual_s,
            max_inflight=8, deadline=4.0))
        generator.start()
        until = generator.config.start_at + virtual_s + DRAIN[workload]
    else:
        deployment.start_workload(duration=virtual_s, interval=1.0)
        until = 0.5 + virtual_s + DRAIN[workload]

    checker = None
    if tracing:
        checker = InvariantChecker(deployment, invariants=[
            ConfidentialityInvariant(set(deployment.data_center_hosts)),
            OrderingSafetyInvariant(),
            CheckpointMonotonicityInvariant(),
        ]).attach()

    self_before = recorder.total_self_seconds() if recorder else 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    deployment.run(until=until)
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - wall0
    deployment.shutdown()

    samples = deployment.recorder.samples
    digest = hashlib.sha256()
    for row in sorted((s.client_id, s.client_seq, repr(s.latency)) for s in samples):
        digest.update(repr(row).encode())
    if generator is not None:
        offered = generator.stats().offered
    else:
        offered = int(Instruments.from_registry(deployment.metrics).total("proxy.submitted"))
    return Pass(
        deployment=deployment,
        latencies=[s.latency for s in samples],
        fingerprint=digest.hexdigest(),
        offered=offered,
        completed=len(samples),
        cpu_s=cpu_s,
        wall_s=wall_s,
        setup_s=setup_s,
        recorder_self_s=(recorder.total_self_seconds() - self_before) if recorder else 0.0,
        invariants=checker.finish() if checker else None,
    )


def executed_spread(deployment) -> float:
    """Max minus min executed ordinal over the executing replicas."""
    ordinals = [r.executed_ordinal() for r in deployment.executing_replicas()]
    return float(max(ordinals) - min(ordinals))


def _output_checks(result: RunResult, run: Pass) -> None:
    """The replicated state machine's outputs: every executing replica
    executed every completed update and holds the same application state."""
    replicas = run.deployment.executing_replicas()
    result.check("replica.executed_spread", executed_spread(run.deployment) == 0,
                 f"ordinals {sorted({r.executed_ordinal() for r in replicas})}")
    snapshots = {r.app.snapshot() for r in replicas}
    result.check("app_state_agrees", len(snapshots) == 1,
                 f"{len(snapshots)} distinct application states")
    executed = {r.app.executed_count for r in replicas}
    result.check("all_completed_executed", min(executed) >= run.completed,
                 f"executed {sorted(executed)}, completed {run.completed}")


def _result(workload: str, passes: List[Pass],
            extra_setups: Sequence[float] = ()) -> RunResult:
    run = passes[0]
    result = RunResult(
        workload=workload,
        attempted=sum(p.offered for p in passes),
        failed=sum(p.offered - p.completed for p in passes),
        end_to_end={
            "update_latency_p50_ms": percentiles_ms(run.latencies)[0],
            "cpu_ms_per_update": min(p.cpu_ms_per_update for p in passes),
            "setup_s": statistics.median([p.setup_s for p in passes] + list(extra_setups)),
        },
        fingerprint=run.fingerprint,
    )
    failed_check(result)
    _output_checks(result, run)
    fingerprints = sorted({p.fingerprint[:16] for p in passes})
    result.check("fingerprint_repeats", len(fingerprints) == 1,
                 f"same-seed passes gave per-update latencies {fingerprints}")
    return result


def pass_virtual_seconds(workload: str, seconds: float) -> float:
    return VIRTUAL_PER_SECOND[workload] * seconds / PASSES


def run_timed(workload: str, seed: int, seconds: float) -> RunResult:
    """The untraced run every end-to-end number comes from."""
    extra_setups = [timed_setup(config_for(workload, seed, tracing=False))[1]
                    for _ in range(EXTRA_SETUPS)]
    virtual_s = pass_virtual_seconds(workload, seconds)
    passes = [run_pass(workload, seed, virtual_s) for _ in range(PASSES)]
    return _result(workload, passes, extra_setups)


def run_traced(workload: str, seed: int, seconds: float, out_dir: Path) -> RunResult:
    """One plain pass, then one traced pass of the same virtual duration.

    End-to-end numbers come from the plain pass; the traced pass adds the
    product tracer, a SpanTracker, the invariant checker and the timing
    wrappers of :mod:`layerbench.trace`, and their combined cost is
    ``trace.overhead_frac``.
    """
    virtual_s = pass_virtual_seconds(workload, seconds)
    plain = run_pass(workload, seed, virtual_s)
    result = _result(workload, [plain])

    installation = trace.install()
    try:
        traced = run_pass(workload, seed, virtual_s, tracing=True,
                          recorder=installation.recorder)
    finally:
        installation.uninstall()
    recorder = installation.recorder
    recorder.write(out_dir / f"{workload}.trace.json")

    deployment = traced.deployment
    view = Instruments.from_registry(deployment.metrics)
    layer = counter_metrics(view, traced.completed, len(deployment.replicas))
    layer.update(span_metrics(
        (span.phase_durations() for span in deployment.spans.completed()), traced.latencies))
    layer.update(latency_layer_metrics(traced.latencies, percentiles_ms(traced.latencies)[1]))
    layer["replica.executed_spread"] = executed_spread(deployment)
    layer["load.offered"] = float(traced.offered)
    layer["load.dropped"] = view.total("load.dropped")
    for name, seconds_self in recorder.self_seconds_by_layer().items():
        layer[f"trace.self_s.{name}"] = seconds_self
    layer["trace.coverage_frac"] = ratio(traced.recorder_self_s, traced.wall_s)
    layer["trace.overhead_frac"] = ratio(traced.cpu_ms_per_update, plain.cpu_ms_per_update) - 1.0
    result.per_layer = layer

    result.check("traced_run_same_latencies", traced.fingerprint == plain.fingerprint,
                 f"fingerprints {plain.fingerprint[:16]} (untraced) vs {traced.fingerprint[:16]}")
    result.check("invariants", traced.invariants.ok, traced.invariants.summary())
    range_check(result, "span.sum_over_e2e", layer["span.sum_over_e2e"], SPAN_SUM_RANGE)
    range_check(result, "trace.coverage_frac", layer["trace.coverage_frac"],
                (MIN_TRACE_COVERAGE, 1.05))
    return result
