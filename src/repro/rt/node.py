"""One RtLab OS process: a replica, or a client driving its proxy.

A node computes the key-free fleet layout from the spec file, loads the
keys the dealer wrote for it (``out_dir/keys/<host>.json``: only what its
role uses, see :func:`~repro.rt.bootstrap.load_node_material`), builds
the live substrate — a
:class:`~repro.rt.runtime.LiveScheduler` on its own asyncio loop and a
:class:`~repro.rt.transport.LiveTransport` on its own TCP port — and then
instantiates *exactly the same protocol objects the simulation uses*:
:class:`~repro.core.executing.ExecutingReplica` /
:class:`~repro.core.replica.StorageReplica` /
:class:`~repro.core.proxy.ClientProxy`, unmodified.

Next to the data port every node serves a control endpoint
(:mod:`repro.rt.control`): ``/health``, ``/metrics`` (Prometheus text),
``/shutdown`` (graceful: write artifacts, close sockets, exit 0), and
``/partition`` (live fault injection). On shutdown a node persists its
slice of the observability record — ``metrics.prom``, raw instrument
dumps, and its trace events — under ``out_dir/nodes/<host>/`` for the
launcher to merge into one deployment-wide bundle.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.confidentiality import Auditor
from repro.core.proxy import ClientProxy
from repro.core.replica import ReplicaEnv
from repro.obs.export import metrics_jsonl_rows, prometheus_text, tracer_jsonl_rows, write_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.watch import NodeWatch
from repro.rt.bootstrap import (
    RtConfig,
    SystemMaterial,
    build_env,
    build_proxy,
    build_replica,
    build_verify_cache,
    data_ports,
    fleet_layout,
    load_node_material,
    slice_for_client,
    slice_for_host,
)
from repro.rt.control import ControlServer
from repro.rt.runtime import LiveScheduler
from repro.rt.transport import LiveTransport
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class NodeContext:
    """The live substrate plus the node's slice of the system."""

    def __init__(self, config: RtConfig, host: str, role: str):
        self.config = config
        self.host = host
        self.role = role
        # Shard-aware: the whole fleet's layout, of which the node keeps
        # its own shard's slice (layout, ports, system config) plus the
        # keys dealt to this host. With shards == 1 the slice IS the
        # classic single group. Raises ConfigurationError naming the host
        # or the key file when either is not this fleet's.
        self.fleet = fleet_layout(config)
        self.shard = slice_for_host(self.fleet, host)
        self.shard_id = self.shard.shard_id
        self.system_config = self.shard.config
        self.rng = RngRegistry(self.system_config.seed)
        self.material: SystemMaterial = load_node_material(
            config, self.shard.material, host
        )
        self.ports = self.shard.ports()
        self.data_port, self.control_port = self.ports[host]
        self.loop = asyncio.get_event_loop()
        self.scheduler = LiveScheduler(self.loop, epoch=config.epoch)
        self.metrics = MetricsRegistry(now_fn=lambda: self.scheduler.now)
        self.metrics.register_gauge(
            "kernel.events_processed", lambda: self.scheduler.events_processed
        )
        self.tracer = Tracer(self.scheduler, enabled=True)
        self.site = self.material.topology.site_of(host).name
        self.transport = LiveTransport(
            self.material.topology,
            data_ports(self.material, self.shard.base_port),
            bind_host=config.bind_host,
            latency=config.latency,
            loop=self.loop,
            metrics=self.metrics,
            tracer=self.tracer,
            trace_wire=config.trace_wire,
            now_fn=lambda: self.scheduler.now,
        )
        # WatchLab: ring buffer + snapshots + span tracker + detectors,
        # all fed from this node's tracer; served via GET /telemetry.
        self.watch = NodeWatch(
            host,
            role,
            self.site,
            self.metrics,
            now_fn=lambda: self.scheduler.now,
        ).attach(self.tracer)
        if config.detectors:
            self.watch.detectors.watch_hosts(self.material.all_hosts)
            self.watch.detectors.restrict_exposure(self.material.data_center_hosts)
        else:
            self.watch.detectors.detach()
        self._telemetry_event = asyncio.Event()
        self.watch.ring.on_append = self._telemetry_event.set
        self._watch_task: Optional[asyncio.Task] = None
        self.auditor = Auditor(tracer=self.tracer)
        self.transport.inspector = self.auditor.inspect_delivery
        # A replica process builds its env from the shared assembly, and
        # with it the crypto worker pool (BatchLab: threshold sign/combine
        # offloaded to worker processes; shut down in :meth:`stop`) and its
        # durable store under ``nodes/<host>/store``. Clients need neither.
        self.env: Optional[ReplicaEnv] = None
        if role == "replica":
            self.env = build_env(
                self.material,
                self.system_config,
                metrics=self.metrics,
                store_path=(
                    (lambda host: Path(config.out_dir) / "nodes" / host / "store")
                    if config.durable_store
                    else None
                ),
                kernel=self.scheduler,
                network=self.transport,
                tracer=self.tracer,
                auditor=self.auditor,
                rng=self.rng,
            )
        self.crypto_pool = self.env.crypto_pool if self.env else None
        self.control = ControlServer(self.control_port, bind_host=config.bind_host)
        self.shutdown_requested = asyncio.Event()
        self._install_routes()

    # -- control routes -----------------------------------------------------------

    def _install_routes(self) -> None:
        self.control.route("GET", "/health", self._r_health)
        self.control.route("GET", "/metrics", self._r_metrics)
        self.control.route("GET", "/telemetry", self._r_telemetry)
        self.control.route("GET", "/clock", self._r_clock)
        self.control.route("POST", "/shutdown", self._r_shutdown)
        self.control.route("POST", "/partition", self._r_partition)

    def _r_health(self, _body: Dict) -> Tuple[int, str, str]:
        return 200, "application/json", json.dumps(
            {
                "host": self.host,
                "role": self.role,
                "shard": self.shard_id,
                "now": self.scheduler.now,
                "pid": os.getpid(),
                "events": self.scheduler.events_processed,
            }
        )

    def _r_metrics(self, _body: Dict) -> Tuple[int, str, str]:
        return (
            200,
            "text/plain; version=0.0.4",
            prometheus_text(self.metrics, at_time=self.scheduler.now),
        )

    async def _r_telemetry(self, body: Dict) -> Tuple[int, str, str]:
        try:
            cursor = int(body.get("since", 0) or 0)
            wait = float(body.get("wait", 0) or 0)
        except (TypeError, ValueError):
            return 400, "application/json", '{"error": "bad since/wait"}'
        if wait > 0 and self.watch.ring.next_seq <= cursor:
            # Long poll: park until the ring grows or the wait expires.
            self._telemetry_event.clear()
            try:
                await asyncio.wait_for(
                    self._telemetry_event.wait(), timeout=min(wait, 30.0)
                )
            except asyncio.TimeoutError:
                pass
        return 200, "application/json", json.dumps(self.watch.telemetry_since(cursor))

    def _r_clock(self, _body: Dict) -> Tuple[int, str, str]:
        stamp = self.transport.hlc.last
        return 200, "application/json", json.dumps(
            {
                "host": self.host,
                "now": self.scheduler.now,
                "hlc": [stamp.physical, stamp.logical],
            }
        )

    def _r_shutdown(self, _body: Dict) -> Tuple[int, str, str]:
        self.shutdown_requested.set()
        return 202, "application/json", '{"shutting_down": true}'

    def _r_partition(self, body: Dict) -> Tuple[int, str, str]:
        site = body.get("site")
        if not isinstance(site, str):
            return 400, "application/json", '{"error": "missing site"}'
        blocked = bool(body.get("blocked", True))
        self.transport.set_site_blocked(site, blocked)
        self.tracer.record("rt.partition", self.host, site=site, blocked=blocked)
        return 200, "application/json", json.dumps({"site": site, "blocked": blocked})

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        await self.transport.start_serving()
        await self.control.start()
        if self.config.telemetry_interval > 0:
            self._watch_task = self.loop.create_task(self._watch_loop())
        # SIGTERM behaves like POST /shutdown: artifacts still get written.
        try:
            self.loop.add_signal_handler(signal.SIGTERM, self.shutdown_requested.set)
            self.loop.add_signal_handler(signal.SIGINT, self.shutdown_requested.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass

    async def _watch_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.telemetry_interval)
            self.transport.hlc.tick()  # idle nodes still advance their clock
            self.watch.note_peers(self.transport.peer_seen)
            self.watch.tick()

    async def stop(self) -> None:
        if self._watch_task is not None:
            self._watch_task.cancel()
            self._watch_task = None
        await self.control.close()
        await self.transport.close()
        if self.crypto_pool is not None:
            self.crypto_pool.shutdown()

    def node_dir(self) -> Path:
        return Path(self.config.out_dir) / "nodes" / self.host

    def write_artifacts(self) -> None:
        """Persist this node's observability slice for the merge step."""
        self.watch.tick()  # flush the final snapshot and pending health events
        out = self.node_dir()
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.prom").write_text(
            prometheus_text(self.metrics, at_time=self.scheduler.now), encoding="utf-8"
        )
        write_jsonl(out / "metrics.jsonl", metrics_jsonl_rows(self.metrics))
        write_jsonl(out / "trace.jsonl", tracer_jsonl_rows(self.tracer.events))
        write_jsonl(out / "telemetry.jsonl", self.watch.artifact_rows())
        raw = {
            "host": self.host,
            "role": self.role,
            "site": self.site,
            "shard": self.shard_id,
            "now": self.scheduler.now,
            "counters": [
                {"name": c.name, "labels": list(c.labels), "value": c.value}
                for c in self.metrics.counters()
            ],
            "gauges": [
                {"name": g.name, "labels": list(g.labels), "value": g.value}
                for g in self.metrics.gauges()
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": list(h.labels),
                    "samples": [[t, v] for t, v in h.samples],
                }
                for h in self.metrics.histograms()
            ],
        }
        tmp = out / "metrics_raw.json.tmp"
        tmp.write_text(json.dumps(raw, sort_keys=True), encoding="utf-8")
        tmp.replace(out / "metrics_raw.json")


# -- replica process ------------------------------------------------------------------


async def _replica_main(config: RtConfig, host: str) -> int:
    ctx = NodeContext(config, host, role="replica")
    replica = build_replica(ctx.env, ctx.material, host)
    await ctx.start()
    # Disk-first recovery: replay the local durable prefix (checkpoint +
    # contiguous log tail) before touching the network, then solicit a
    # state transfer for only the missing suffix. A first boot (empty
    # store) skips both and behaves exactly as before.
    recovered = replica.recover_from_store()
    replica.start()
    if not recovered.empty:
        replica.xfer.initiate(
            reason="disk-recovery",
            have_seq=recovered.batch_seq,
            have_ordinal=recovered.ordinal,
        )
    await ctx.shutdown_requested.wait()
    ctx.write_artifacts()
    replica.store.close()
    await ctx.stop()
    return 0


def run_replica_node(config: RtConfig, host: str) -> int:
    return asyncio.run(_replica_main(config, host))


# -- client process -------------------------------------------------------------------


def _update_body(client_id: str, seq: int) -> bytes:
    return f"SET {client_id}-key-{seq % 17} value-{seq}".encode("utf-8")


class ClientDriver:
    """Closed-loop workload: one in-flight update per client."""

    def __init__(self, ctx: NodeContext, proxy: ClientProxy, updates: int, interval: float):
        self.ctx = ctx
        self.proxy = proxy
        self.updates = updates
        self.interval = interval
        self._completions: Dict[int, float] = {}
        self._done = asyncio.Event()
        # Routing-tier accounting: in a sharded fleet each client's
        # submissions count against its home shard (same instrument the
        # sim's ShardRouter uses, so merged bundles validate uniformly).
        self._m_shard = (
            ctx.metrics.counter("shard.updates", shard=f"s{ctx.shard_id}")
            if ctx.config.shards > 1
            else None
        )
        proxy.on_response(self._on_response)

    def _on_response(self, seq: int, _body: bytes, latency: float) -> None:
        self._completions[seq] = latency
        self._done.set()

    async def run(self) -> Dict:
        # Worst case one update rides out every retransmit before we call
        # it lost and move on; the proxy keeps retrying in the background.
        per_update_timeout = (
            self.proxy.retransmit_timeout * (self.proxy.max_retransmits + 1) + 10.0
        )
        for _ in range(self.updates):
            self._done.clear()
            if self._m_shard is not None:
                self._m_shard.inc()
            seq = self.proxy.submit(
                _update_body(self.proxy.client_id, self.proxy.next_seq)
            )
            deadline = self.ctx.scheduler.now + per_update_timeout
            while seq not in self._completions and self.ctx.scheduler.now < deadline:
                try:
                    await asyncio.wait_for(self._done.wait(), timeout=1.0)
                except asyncio.TimeoutError:
                    pass
                self._done.clear()
            if self.interval > 0:
                await asyncio.sleep(self.interval)
        return {
            "client_id": self.proxy.client_id,
            "updates": self.updates,
            "completed": len(self.proxy.completed),
            "gave_up": self.proxy.gave_up,
            "retransmissions": self.proxy.retransmissions,
            "latencies": self.proxy.latencies(),
        }


class OpenLoopClientDriver:
    """Open-loop workload: seeded arrivals at an offered rate.

    The live counterpart of :class:`repro.load.generator.LoadGenerator`,
    scoped to one client process: this client's slice of the fleet-wide
    alias population is multiplexed over its single real proxy, arrival
    gaps come from the same seeded :mod:`repro.load.arrivals` processes
    the sim uses (as asyncio sleeps instead of kernel timeouts), and an
    arrival that finds the proxy's in-flight window full is dropped and
    counted — the generator never slows down because the system did.

    The result document keeps every key the closed-loop driver publishes
    (so ``Launcher.summary()`` aggregates both identically) plus a
    ``load`` extras dict with the open-loop accounting.
    """

    def __init__(self, ctx: NodeContext, proxy: ClientProxy, config: RtConfig,
                 client_index: int, total_clients: int):
        import random as _random

        from repro.load.arrivals import ArrivalSpec

        self.ctx = ctx
        self.proxy = proxy
        self.config = config
        self.spec = ArrivalSpec(
            profile=config.load_profile,
            rate=config.load_rate / max(total_clients, 1),
            params=dict(config.load_profile_params or {}),
        )
        # This client's contiguous slice of the fleet-wide alias space.
        base, remainder = divmod(config.load_aliases, max(total_clients, 1))
        count = max(1, base + (1 if client_index < remainder else 0))
        start = client_index * base + min(client_index, remainder)
        self.aliases = list(range(start, start + count))
        self.rng = _random.Random(f"{config.seed}:load:{proxy.client_id}")
        self.rng.shuffle(self.aliases)
        self._cursor = 0
        self._phase_of: Dict[int, str] = {}
        self._m_offered = ctx.metrics.counter("load.offered")
        self._m_admitted = ctx.metrics.counter("load.admitted")
        self._m_dropped = ctx.metrics.counter("load.dropped")
        self._m_completed = ctx.metrics.counter("load.completed")
        self._m_slo_miss = ctx.metrics.counter("load.slo_miss")
        ctx.metrics.gauge("load.aliases").set(count)
        self._m_shard = (
            ctx.metrics.counter("shard.updates", shard=f"s{ctx.shard_id}")
            if ctx.config.shards > 1
            else None
        )
        self.offered = 0
        self.admitted = 0
        self.dropped = 0
        self.slo_miss = 0
        proxy.on_response(self._on_response)

    def _on_response(self, seq: int, _body: bytes, latency: float) -> None:
        phase = self._phase_of.pop(seq, "steady")
        self._m_completed.inc()
        self.ctx.metrics.histogram("load.latency", phase=phase).observe(latency)
        if latency > self.config.load_deadline:
            self.slo_miss += 1
            self._m_slo_miss.inc()

    def _arrival(self, t_rel: float) -> None:
        from repro.load.arrivals import phase_at

        cfg = self.config
        self.offered += 1
        self._m_offered.inc()
        alias = self.aliases[self._cursor]
        self._cursor = (self._cursor + 1) % len(self.aliases)
        if self.proxy.outstanding >= cfg.load_max_inflight:
            self.dropped += 1
            self._m_dropped.inc()
            return
        key = f"a{alias:05d}-k{self.rng.randrange(max(cfg.load_keyspace, 1))}"
        body = (
            f"SET {key} a{alias}:{self.offered}:".encode()
            + b"v" * max(cfg.load_value_bytes, 0)
        )
        self._phase_of[self.proxy.next_seq] = phase_at(self.spec, t_rel)
        if self._m_shard is not None:
            self._m_shard.inc()
        self.proxy.submit(body)
        self.admitted += 1
        self._m_admitted.inc()

    async def run(self) -> Dict:
        from repro.load.arrivals import arrival_gaps

        cfg = self.config
        start = self.ctx.scheduler.now
        for gap in arrival_gaps(self.spec, self.rng, cfg.load_duration):
            if gap > 0:
                await asyncio.sleep(gap)
            self._arrival(self.ctx.scheduler.now - start)
        # Drain: give in-flight updates a bounded window to complete;
        # whatever is still pending afterwards is honest timeout count.
        drain_deadline = self.ctx.scheduler.now + cfg.load_deadline + 6.0
        while self.proxy.outstanding and self.ctx.scheduler.now < drain_deadline:
            await asyncio.sleep(0.2)
        completed = len(self.proxy.completed)
        return {
            "client_id": self.proxy.client_id,
            "updates": self.offered,
            "completed": completed,
            "gave_up": self.proxy.gave_up,
            "retransmissions": self.proxy.retransmissions,
            "latencies": self.proxy.latencies(),
            "load": {
                "profile": cfg.load_profile,
                "rate_per_client": self.spec.rate,
                "duration_s": cfg.load_duration,
                "offered": self.offered,
                "admitted": self.admitted,
                "dropped": self.dropped,
                "timeouts": self.admitted - completed,
                "slo_miss": self.slo_miss,
                "aliases": len(self.aliases),
            },
        }


def client_node(config: RtConfig, client_id: str) -> Tuple[NodeContext, ClientProxy]:
    """A client process's context and proxy. Clients route to their home
    shard: the context stands on that shard's proxy host and ports, with
    the signing key dealt to that host."""
    home = slice_for_client(fleet_layout(config), client_id)
    ctx = NodeContext(config, home.material.proxy_of_client[client_id], role="client")
    proxy = build_proxy(
        ctx.material,
        ctx.system_config,
        client_id,
        kernel=ctx.scheduler,
        network=ctx.transport,
        tracer=ctx.tracer,
        metrics=ctx.metrics,
        # Per-process memo: retransmits and duplicate responses hit it.
        verify_cache=build_verify_cache(ctx.system_config, ctx.metrics),
        retransmit_timeout=config.retransmit_timeout,
    )
    return ctx, proxy


async def _client_main(config: RtConfig, client_id: str) -> int:
    ctx, proxy = client_node(config, client_id)
    await ctx.start()

    if config.load_profile:
        all_clients = sorted(
            cid for fleet_slice in ctx.fleet for cid in fleet_slice.client_ids
        )
        driver = OpenLoopClientDriver(
            ctx, proxy, config,
            client_index=all_clients.index(client_id),
            total_clients=len(all_clients),
        )
    else:
        driver = ClientDriver(
            ctx, proxy, config.updates_per_client, config.update_interval
        )
    result = await driver.run()

    # Publish the result atomically, then wait for the launcher's shutdown:
    # exiting now would tear down the control port before the final scrape.
    clients_dir = Path(config.out_dir) / "clients"
    clients_dir.mkdir(parents=True, exist_ok=True)
    tmp = clients_dir / f"{client_id}.json.tmp"
    tmp.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    tmp.replace(clients_dir / f"{client_id}.json")

    await ctx.shutdown_requested.wait()
    ctx.write_artifacts()
    await ctx.stop()
    return 0


def run_client_node(config: RtConfig, client_id: str) -> int:
    return asyncio.run(_client_main(config, client_id))
