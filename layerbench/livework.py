"""The two workloads on the live substrate: real processes, real sockets.

Both launch the f=1 confidential fleet (14 replica processes in two
control centers and two data centers, injected site latency, durable
stores) and two client-proxy processes driven by the program's own
seeded open-loop Poisson driver. ``live_leader_kill`` additionally
SIGKILLs the view-0 leader under load and respawns it three seconds
later, so requests keep arriving on schedule while there is no leader.

Layers are read from outside only: the artifacts every run already
writes (``merged/spans.jsonl``, ``merged/metrics.jsonl``, per-node
``metrics_raw.json``, ``merged/health.jsonl``) plus ``/proc/<pid>/stat``
samples of the fleet.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.rt.bootstrap import RtConfig
from repro.rt.control import http_request
from repro.rt.launcher import Launcher, _log_tail
from repro.rt.merge import load_jsonl_rows

from layerbench.layers import Instruments, counter_metrics, ratio, span_metrics
from layerbench.result import (
    SPAN_SUM_RANGE,
    RunResult,
    failed_check,
    latency_layer_metrics,
    quietest_window_percentiles_ms,
    range_check,
)
from layerbench.stats import cpu_seconds, sample_cpu

WORKLOADS = ("live_steady", "live_leader_kill")

#: Offered load, updates/s across both clients: about half of the 2-core
#: reference box, where latency is set by protocol timers, not queueing.
RATE = 6.0
NUM_CLIENTS = 2
#: Each workload owns a port range; a block is 64 ports wide (the fleet
#: needs 32) and the next block is tried when any port is taken.
BASE_PORTS = {"live_steady": 21000, "live_leader_kill": 23000}
PORT_BLOCK = 64
PORT_BLOCKS = 8

#: Leader-kill schedule, seconds after the fleet is up.
KILL_AT = 4.0
RESTART_AFTER = 3.0
#: The fault window runs from the kill until this long after the respawned
#: replica reports a completed state transfer (or, should it never, for
#: FAULT_WINDOW_MAX). Updates submitted inside it see the view change and
#: the catch-up, not steady ordering: the longest of their latencies is
#: ``service_gap_s``, and they are left out of the latency percentiles,
#: which would otherwise just re-measure the gap, noisily, through the
#: Poisson count of arrivals that fell into it. Tying the end to the
#: observed recovery keeps a slower box from leaking catch-up into them.
RECOVERY_MARGIN = 1.0
FAULT_WINDOW_MAX = 10.0
#: Idle time between the last client finishing and the shutdown, so every
#: replica has executed what the fastest quorum already answered.
SETTLE = 1.0

FATAL_HEALTH_KINDS = ("exposure", "store-corruption")


def rt_config(seed: int, seconds: float, out_dir: Path, base_port: int) -> RtConfig:
    return RtConfig(
        mode="confidential", f=1, data_centers=2, num_clients=NUM_CLIENTS, seed=seed,
        latency=True, durable_store=True, store_fsync="batch",
        intro_batch_size=1,
        load_profile="poisson", load_rate=RATE, load_duration=seconds,
        load_aliases=200, load_max_inflight=64,
        base_port=base_port, out_dir=str(out_dir),
    )


# -- fleet hygiene ------------------------------------------------------------


def free_port_block(first_base: int, bind_host: str = "127.0.0.1") -> int:
    """The first port block at or after ``first_base`` in which every port binds."""
    for block in range(PORT_BLOCKS):
        base = first_base + block * PORT_BLOCK
        try:
            for port in range(base, base + PORT_BLOCK):
                with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                    probe.bind((bind_host, port))
        except OSError:
            continue
        return base
    raise RuntimeError(f"no free block of {PORT_BLOCK} ports in {PORT_BLOCKS} tries from {first_base}")


def sweep_fleet(spec_path: Path) -> int:
    """SIGKILL every process whose command line names this run's spec file.

    The launcher reaps what it tracks; this catches whatever it lost track
    of (a respawn racing a failed run, an interrupted shutdown), so no
    ``repro rt node`` process outlives the harness.
    """
    needle = str(spec_path).encode()
    killed = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if needle in cmdline:
            try:
                os.kill(int(entry), signal.SIGKILL)
                killed += 1
            except OSError:
                pass
    return killed


# -- one run --------------------------------------------------------------------


@dataclass
class LiveRun:
    """Everything the harness itself observed about one fleet run."""

    config: RtConfig
    setup_s: float
    workload_s: float
    finished: bool
    #: CPU seconds between fleet-up and workload-done, per process name.
    cpu_s: Dict[str, float]
    executing_hosts: Tuple[str, ...]
    storage_hosts: Tuple[str, ...]
    killed: Optional[str] = None
    marks: Dict[str, float] = field(default_factory=dict)


def _pids(launcher: Launcher) -> Dict[str, int]:
    handles = {**launcher.replicas, **launcher.clients}
    return {name: h.proc.pid for name, h in handles.items() if h.proc is not None}


async def _wait_for_clients(launcher: Launcher, timeout: float) -> bool:
    """Until every client published its result file (no /metrics scraping:
    the harness adds nothing to the fleet's CPU but two /proc samples)."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        published = launcher.client_results()
        if len(published) == len(launcher.client_ids):
            return True
        for handle in launcher.clients.values():
            if not handle.alive and handle.name not in published:
                raise RuntimeError(f"client {handle.name} died before finishing "
                                   f"(log {handle.log_path}):\n{_log_tail(handle)}")
        await asyncio.sleep(0.1)
    return False


async def _kill_and_restart(launcher: Launcher, host: str, kill_at: float,
                            marks: Dict[str, float]) -> None:
    await asyncio.sleep(kill_at)
    marks["cpu_before_kill"] = cpu_seconds(launcher.replicas[host].proc.pid) or 0.0
    launcher.crash(host)
    marks["kill"] = time.time()
    await asyncio.sleep(RESTART_AFTER)
    respawn = time.time()
    await launcher.restart(host)
    marks["respawn_to_healthy_s"] = time.time() - respawn
    port = launcher.replicas[host].control_port
    while time.time() - respawn < 30.0:
        try:
            _status, text = await http_request(launcher.config.bind_host, port, "GET", "/metrics")
        except (OSError, asyncio.TimeoutError):
            text = ""
        for line in text.splitlines():
            if line.startswith("xfer_completed_total") and float(line.split()[-1]) >= 1:
                marks["catchup_s"] = time.time() - respawn
                return
        await asyncio.sleep(0.1)


async def _run_fleet(workload: str, config: RtConfig) -> LiveRun:
    started = time.perf_counter()
    launcher = Launcher.with_epoch(config)
    marks: Dict[str, float] = {}
    killed = None
    fault: Optional[asyncio.Task] = None
    try:
        await launcher.launch()
        setup_s = time.perf_counter() - started
        up = time.perf_counter()
        cpu_up = sample_cpu(_pids(launcher))
        if workload == "live_leader_kill":
            killed = launcher.material.prime_config.leader_of(0)
            kill_at = min(KILL_AT, 0.2 * config.load_duration)
            fault = asyncio.ensure_future(_kill_and_restart(launcher, killed, kill_at, marks))
        finished = await _wait_for_clients(launcher, config.load_duration + 40.0)
        workload_s = time.perf_counter() - up
        if fault is not None:
            await asyncio.wait_for(fault, timeout=30.0)
        cpu_done = sample_cpu(_pids(launcher))
        await asyncio.sleep(SETTLE)
    finally:
        if fault is not None and not fault.done():
            fault.cancel()
        await launcher.shutdown()
    launcher.merge()

    cpu_s = {name: cpu_done[name] - cpu_up.get(name, 0.0) for name in cpu_done}
    if killed is not None:
        # The respawned process starts from zero; add what its first
        # incarnation had burnt between fleet-up and the kill.
        cpu_s[killed] = cpu_done[killed] + marks["cpu_before_kill"] - cpu_up[killed]
        marks["kill_rel"] = marks["kill"] - launcher.config.epoch
        recovered = marks["kill"] + RESTART_AFTER + marks.get("catchup_s", FAULT_WINDOW_MAX)
        marks["window_end_rel"] = min(recovered + RECOVERY_MARGIN,
                                      marks["kill"] + FAULT_WINDOW_MAX) - launcher.config.epoch
    material = launcher.material
    return LiveRun(
        config=launcher.config, setup_s=setup_s, workload_s=workload_s, finished=finished,
        cpu_s=cpu_s, executing_hosts=tuple(material.executing_hosts),
        storage_hosts=tuple(h for h in material.all_hosts if h not in material.executing_hosts),
        killed=killed, marks=marks,
    )


def run_fleet(workload: str, seed: int, seconds: float, out_dir: Path) -> LiveRun:
    """Launch, load, (kill,) drain, shut down, merge. Never leaks a process."""
    config = rt_config(seed, seconds, out_dir, free_port_block(BASE_PORTS[workload]))
    try:
        return asyncio.run(_run_fleet(workload, config))
    finally:
        sweep_fleet(out_dir / "spec.json")


# -- reading the artifacts -------------------------------------------------------


def _completed_spans(out_dir: Path) -> List[Dict]:
    rows, _absorbed = load_jsonl_rows(out_dir / "merged" / "spans.jsonl")
    return [row for row in rows if row.get("status") == "completed"]


def _updates_executed(out_dir: Path, hosts: Tuple[str, ...]) -> List[float]:
    """``replica.updates_executed`` of each host, ascending."""
    executed = []
    for host in hosts:
        raw = json.loads((out_dir / "nodes" / host / "metrics_raw.json").read_text("utf-8"))
        executed.append(sum(
            c["value"] for c in raw["counters"] if c["name"] == "replica.updates_executed"))
    return sorted(executed)


def analyse(workload: str, run: LiveRun, out_dir: Path, traced: bool) -> RunResult:
    clients = {
        path.stem: json.loads(path.read_text("utf-8"))
        for path in sorted((out_dir / "clients").glob("*.json"))
    }
    offered = sum(c["load"]["offered"] for c in clients.values())
    completed = sum(c["completed"] for c in clients.values())
    spans = _completed_spans(out_dir)

    kill_rel = run.marks.get("kill_rel")

    def faulted(span: Dict) -> bool:
        return kill_rel is not None and kill_rel <= span["start"] < run.marks["window_end_rel"]

    in_fault_window = [s for s in spans if faulted(s)]
    steady = [s for s in spans if not faulted(s)] or spans
    latencies = [s["latency"] for s in steady]
    median_ms, tail_ms = quietest_window_percentiles_ms(
        [(s["start"], s["latency"]) for s in steady])
    cpu_total = sum(run.cpu_s.values())

    result = RunResult(
        workload=workload,
        attempted=offered,
        failed=offered - completed,
        end_to_end={
            "update_latency_p50_ms": median_ms,
            "cpu_ms_per_update": ratio(cpu_total, completed) * 1e3,
            "setup_s": run.setup_s,
        },
    )
    failed_check(result)
    result.check("workload_finished", run.finished, "clients never published their results")
    result.check("spans_match_completions", len(spans) == completed,
                 f"{len(spans)} completed spans, clients report {completed} completions")
    health, _ = load_jsonl_rows(out_dir / "merged" / "health.jsonl")
    fatal = [row for row in health if row.get("kind") in FATAL_HEALTH_KINDS]
    result.check("no_exposure_or_corruption", not fatal, f"health events: {fatal[:3]}")
    executed = _updates_executed(
        out_dir, tuple(h for h in run.executing_hosts if h != run.killed))
    spread = executed[-1] - executed[0]
    # Without a fault every replica must have executed every completed
    # update once the fleet has idled for SETTLE. After a leader kill the
    # survivors are routinely an update or more apart when the fleet is
    # stopped (README, "Deferred"), so there only the most advanced one is
    # held to it: nothing a client saw acknowledged may be missing.
    agreed = executed[-1] >= completed and (run.killed is not None or spread == 0)
    result.check("replica.executed_spread", agreed,
                 f"updates executed per surviving replica {executed}, completed {completed}")
    layer_spans = span_metrics((s["phases"] for s in spans), [s["latency"] for s in spans])
    range_check(result, "span.sum_over_e2e", layer_spans["span.sum_over_e2e"], SPAN_SUM_RANGE)
    if run.killed is not None:
        result.check("fault_injected", "catchup_s" in run.marks and bool(in_fault_window),
                     f"marks {sorted(run.marks)}, {len(in_fault_window)} updates in fault window")
    if not traced:
        return result

    rows, _ = load_jsonl_rows(out_dir / "merged" / "metrics.jsonl")
    view = Instruments.from_jsonl_rows(rows)
    replicas = len(run.executing_hosts) + len(run.storage_hosts)
    layer = counter_metrics(view, completed, replicas)
    layer.update(layer_spans)
    layer.update(latency_layer_metrics(latencies, tail_ms))
    layer["replica.executed_spread"] = spread
    layer["load.offered"] = float(offered)
    layer["load.dropped"] = float(sum(c["load"]["dropped"] for c in clients.values()))
    starts = [s["start"] for s in spans]
    layer["load.generator_lag_s"] = max(starts) - min(starts) - run.config.load_duration
    layer["service_gap_s"] = max((s["latency"] for s in in_fault_window), default=0.0)
    layer["store.recovered_records"] = view.total("store.recovered_records")
    layer["recovery.respawn_to_healthy_s"] = run.marks.get("respawn_to_healthy_s", 0.0)
    layer["recovery.catchup_s"] = run.marks.get("catchup_s", 0.0)

    def cpu_of(names) -> float:
        return ratio(sum(run.cpu_s.get(n, 0.0) for n in names), completed) * 1e3

    layer["rt.cpu_ms_per_update.executing"] = cpu_of(run.executing_hosts)
    layer["rt.cpu_ms_per_update.storage"] = cpu_of(run.storage_hosts)
    layer["rt.cpu_ms_per_update.proxy"] = cpu_of(clients)
    layer["rt.fleet_cores_busy"] = ratio(cpu_total, run.workload_s)
    result.per_layer = layer
    return result
