"""Deployment launcher: spawns, supervises, and harvests a live run.

``repro rt run --f 1`` lands here. The launcher:

1. is the deployment's one-time dealer: generates the material of the
   fleet's one replica group (hosts, ports, every key), writes the spec
   file every node reads (:class:`~repro.rt.bootstrap.RtConfig` JSON with
   the shared wall-clock epoch) and one key file per node holding only
   what that node's role uses (``out_dir/keys/<host>.json``, mode 0600);
2. spawns one OS process per replica (``repro rt node --host X``), waits
   until every control endpoint answers ``/health``, then spawns one
   process per client (proxy + workload driver);
3. supervises: periodically scrapes every node's Prometheus endpoint
   (``out_dir/scrape/<host>.prom``), watches for the clients' result
   files, and exposes :meth:`crash`/:meth:`restart` for fault injection
   (SIGKILL — no goodbye — then an identical respawn that loads the same
   key file and rejoins via state transfer);
4. shuts down gracefully (``POST /shutdown`` — each node persists its
   observability slice first), then merges the slices into the standard
   bundle at ``out_dir/merged/`` (:mod:`repro.rt.merge`).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.rt.bootstrap import RtConfig, generate_fleet, host_ports
from repro.rt.control import http_request
from repro.rt.keys import write_key_files
from repro.rt.merge import merge_bundle

_HEALTH_INTERVAL = 0.25
_SCRAPE_INTERVAL = 2.0


def _log_tail(handle: "NodeHandle", lines: int = 15) -> str:
    """The last few log lines of a node, for inlining into errors — a
    bare 'see the log file' forces a second round trip to diagnose a
    fleet that died during startup."""
    if handle.log_path is None or not handle.log_path.is_file():
        return "<no log captured>"
    try:
        content = handle.log_path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:  # pragma: no cover - racing filesystem
        return f"<log unreadable: {exc}>"
    tail = content.splitlines()[-lines:]
    if not tail:
        return "<log empty>"
    return "\n".join(f"    | {line}" for line in tail)


@dataclass
class NodeHandle:
    """One supervised OS process."""

    name: str                    # host for replicas, client id for clients
    kind: str                    # "replica" | "client"
    argv: List[str]
    control_port: int
    proc: Optional[subprocess.Popen] = None
    log_path: Optional[Path] = None
    restarts: int = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


# Shared percentile math (repro.load.closedloop) so live summaries and
# every benchmark report latency identically.
from repro.load.closedloop import percentile as _percentile  # noqa: E402


class Launcher:
    """Spawn and supervise one live deployment."""

    def __init__(self, config: RtConfig):
        if config.epoch == 0.0:
            raise ValueError("RtConfig.epoch must be set before launching "
                             "(use Launcher.with_epoch or rt run)")
        self.config = config
        self.out_dir = Path(config.out_dir)
        # The whole fleet's material, keys included: the launcher is the dealer.
        self.material = generate_fleet(config)
        self.ports: Dict[str, Tuple[int, int]] = host_ports(self.material, config.base_port)
        self.client_ids: List[str] = self.material.client_ids
        self.replicas: Dict[str, NodeHandle] = {}
        self.clients: Dict[str, NodeHandle] = {}
        self.spec_path = self.out_dir / "spec.json"

    @classmethod
    def with_epoch(cls, config: RtConfig, start_delay: float = 2.0) -> "Launcher":
        """Stamp the shared epoch slightly in the future so every node's
        ``now`` starts near zero once the fleet is actually up."""
        stamped = RtConfig(**{**config.__dict__, "epoch": time.time() + start_delay})
        return cls(stamped)

    # -- spawning -----------------------------------------------------------------

    def _spawn(self, handle: NodeHandle) -> None:
        logs = self.out_dir / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        handle.log_path = logs / f"{handle.name}.log"
        log_file = open(handle.log_path, "ab")
        handle.proc = subprocess.Popen(
            handle.argv,
            stdout=log_file,
            stderr=subprocess.STDOUT,
            env=dict(os.environ),
        )
        log_file.close()

    def _node_argv(self, *extra: str) -> List[str]:
        return [sys.executable, "-m", "repro", "rt", "node",
                "--spec", str(self.spec_path), *extra]

    async def launch(self) -> None:
        """Bring the whole fleet up: replicas first, then clients."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.spec_path.write_text(self.config.to_json(), encoding="utf-8")
        write_key_files(self.config, self.material)

        for host in self.material.all_hosts:
            self.replicas[host] = NodeHandle(
                name=host,
                kind="replica",
                argv=self._node_argv("--host", host),
                control_port=self.ports[host][1],
            )
            self._spawn(self.replicas[host])
        await self._wait_healthy(self.replicas.values())

        for cid in self.client_ids:
            proxy_host = self.material.proxy_of_client[cid]
            self.clients[cid] = NodeHandle(
                name=cid,
                kind="client",
                argv=self._node_argv("--client", cid),
                control_port=self.ports[proxy_host][1],
            )
            self._spawn(self.clients[cid])
        await self._wait_healthy(self.clients.values())

    async def _wait_healthy(self, handles, timeout: float = 60.0) -> None:
        deadline = time.time() + timeout
        pending = list(handles)
        while pending:
            still = []
            for handle in pending:
                if not handle.alive:
                    code = handle.proc.returncode if handle.proc else None
                    raise RuntimeError(
                        f"{handle.kind} {handle.name} exited during startup "
                        f"(code {code}, log {handle.log_path}):\n"
                        f"{_log_tail(handle)}"
                    )
                try:
                    status, _ = await http_request(
                        self.config.bind_host, handle.control_port,
                        "GET", "/health", timeout=2.0,
                    )
                    if status != 200:
                        still.append(handle)
                except OSError:
                    still.append(handle)
            pending = still
            if pending:
                if time.time() > deadline:
                    names = [h.name for h in pending]
                    tails = "\n".join(
                        f"  {h.kind} {h.name} (log {h.log_path}):\n{_log_tail(h)}"
                        for h in pending
                    )
                    raise RuntimeError(
                        f"nodes never became healthy: {names}\n{tails}"
                    )
                await asyncio.sleep(_HEALTH_INTERVAL)

    # -- fault injection ----------------------------------------------------------

    def crash(self, host: str) -> None:
        """SIGKILL a replica process: no shutdown, no artifacts, no goodbye."""
        handle = self.replicas[host]
        if handle.proc is not None and handle.alive:
            handle.proc.kill()
            handle.proc.wait()

    async def restart(self, host: str) -> None:
        """Respawn a crashed replica; it loads the key file it was dealt
        and rejoins, catching up through the ordinary state-transfer path."""
        handle = self.replicas[host]
        if handle.alive:
            self.crash(host)
        handle.restarts += 1
        self._spawn(handle)
        await self._wait_healthy([handle])

    async def partition(self, site: str, blocked: bool) -> None:
        """Tell every live node to block (or unblock) traffic with ``site``."""
        for handle in list(self.replicas.values()) + list(self.clients.values()):
            if not handle.alive:
                continue
            try:
                await http_request(
                    self.config.bind_host, handle.control_port,
                    "POST", "/partition", {"site": site, "blocked": blocked},
                )
            except OSError:
                pass

    # -- supervision --------------------------------------------------------------

    def client_results(self) -> Dict[str, Dict]:
        results = {}
        clients_dir = self.out_dir / "clients"
        for cid in self.client_ids:
            path = clients_dir / f"{cid}.json"
            if path.is_file():
                results[cid] = json.loads(path.read_text(encoding="utf-8"))
        return results

    async def scrape(self) -> Dict[str, str]:
        """Pull every node's live /metrics; persist under out_dir/scrape/."""
        scrape_dir = self.out_dir / "scrape"
        scrape_dir.mkdir(parents=True, exist_ok=True)
        texts: Dict[str, str] = {}
        for handle in list(self.replicas.values()) + list(self.clients.values()):
            if not handle.alive:
                continue
            try:
                status, text = await http_request(
                    self.config.bind_host, handle.control_port, "GET", "/metrics"
                )
            except OSError:
                continue
            if status == 200:
                texts[handle.name] = text
                (scrape_dir / f"{handle.name}.prom").write_text(text, encoding="utf-8")
        return texts

    async def wait_for_workload(self, timeout: float) -> bool:
        """Wait until every client published results; scrape as we go."""
        deadline = time.time() + timeout
        next_scrape = 0.0
        while time.time() < deadline:
            if len(self.client_results()) == len(self.client_ids):
                return True
            for handle in self.clients.values():
                if not handle.alive and handle.name not in self.client_results():
                    raise RuntimeError(
                        f"client {handle.name} died before finishing "
                        f"(log {handle.log_path}):\n{_log_tail(handle)}"
                    )
            if time.time() >= next_scrape:
                await self.scrape()
                next_scrape = time.time() + _SCRAPE_INTERVAL
            await asyncio.sleep(0.25)
        return False

    # -- teardown -----------------------------------------------------------------

    async def shutdown(self, grace: float = 15.0) -> None:
        """Graceful stop (nodes write their artifacts), then reap."""
        await self.scrape()
        handles = list(self.clients.values()) + list(self.replicas.values())
        for handle in handles:
            if not handle.alive:
                continue
            try:
                await http_request(
                    self.config.bind_host, handle.control_port, "POST", "/shutdown"
                )
            except OSError:
                pass
        deadline = time.time() + grace
        for handle in handles:
            if handle.proc is None:
                continue
            while handle.alive and time.time() < deadline:
                await asyncio.sleep(0.1)
            if handle.alive:
                handle.proc.kill()
                handle.proc.wait()

    def merge(self) -> Dict[str, str]:
        return merge_bundle(self.out_dir)

    def summary(self) -> Dict:
        """Workload outcome across all clients."""
        results = self.client_results()
        latencies = sorted(
            lat for r in results.values() for _seq, lat in r.get("latencies", [])
        )
        submitted = sum(r.get("updates", 0) for r in results.values())
        completed = sum(r.get("completed", 0) for r in results.values())
        summary = {
            "clients": len(results),
            "updates_submitted": submitted,
            "updates_completed": completed,
            "retransmissions": sum(r.get("retransmissions", 0) for r in results.values()),
            "latency_p50": _percentile(latencies, 50),
            "latency_p99": _percentile(latencies, 99),
            "latency_mean": sum(latencies) / len(latencies) if latencies else 0.0,
        }
        # Open-loop runs (RtConfig.load_profile) publish per-client load
        # accounting; aggregate it fleet-wide so drops/timeouts surface in
        # the one summary document benchmarks read.
        load_rows = [r["load"] for r in results.values() if "load" in r]
        if load_rows:
            summary["load"] = {
                "profile": load_rows[0]["profile"],
                "offered": sum(row["offered"] for row in load_rows),
                "admitted": sum(row["admitted"] for row in load_rows),
                "dropped": sum(row["dropped"] for row in load_rows),
                "timeouts": sum(row["timeouts"] for row in load_rows),
                "slo_miss": sum(row["slo_miss"] for row in load_rows),
                "aliases": sum(row["aliases"] for row in load_rows),
            }
        return summary


async def _run_deployment_async(config: RtConfig, timeout: float) -> Dict:
    launcher = Launcher.with_epoch(config)
    started = time.time()
    workload_started = started
    try:
        await launcher.launch()
        workload_started = time.time()
        finished = await launcher.wait_for_workload(timeout)
        elapsed = time.time() - workload_started
    finally:
        # Covers launch() failures too: a half-started fleet must be reaped,
        # not leaked to squat on the port range.
        await launcher.shutdown()
    paths = launcher.merge()
    summary = launcher.summary()
    summary.update(
        {
            "finished": finished,
            "workload_seconds": elapsed,
            "startup_seconds": workload_started - started,
            "throughput_per_s": (
                summary["updates_completed"] / elapsed if elapsed > 0 else 0.0
            ),
            "merged_bundle": paths,
        }
    )
    (Path(config.out_dir) / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
    )
    return summary


def run_deployment(config: RtConfig, timeout: float = 300.0) -> Dict:
    """Launch, run the workload to completion, shut down, merge; blocking."""
    return asyncio.run(_run_deployment_async(config, timeout))
