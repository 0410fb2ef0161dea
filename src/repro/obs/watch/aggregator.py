"""Fleet aggregator: one consumer for every node's ``/telemetry`` ring.

The aggregator is the client half of WatchLab's live plane — it is what
``repro obs top`` and ``repro obs tail`` run. It keeps one cursor per
node, polls ``GET /telemetry?since=<cursor>`` over the control plane,
and folds the returned rows into fleet-level state:

- per-node metric snapshots (two deep — enough to turn cumulative
  counters into rates);
- the merged health-event stream;
- the merged milestone trace rows, from which cross-node spans are
  stitched with the *same* :class:`~repro.obs.spans.SpanTracker` the
  simulation and the offline merge use;
- per-node clock-offset estimates from NTP-style ``/clock`` probes
  (:func:`repro.obs.hlc.estimate_offset`), so the operator can see skew
  next to the latencies it would pollute.

HTTP happens through :func:`repro.rt.control.http_request`, imported
lazily so this module stays importable without the rt package loaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.hlc import estimate_offset
from repro.obs.spans import REQUIRED_PHASES, SpanTracker
from repro.obs.watch.events import HealthEvent, health_event_from_row
from repro.sim.trace import TraceEvent


@dataclass(frozen=True)
class NodeEndpoint:
    """Where one node's control plane lives, plus its fleet identity."""

    name: str  # replica host, or the proxy host serving a client
    control_port: int
    site: str = ""
    role: str = "replica"
    host: str = "127.0.0.1"


class FleetAggregator:
    """Cursor-tracked consumer of every node's telemetry ring."""

    def __init__(self, nodes: Sequence[NodeEndpoint], epoch: float = 0.0):
        self.nodes = list(nodes)
        self.epoch = epoch
        self._cursors: Dict[str, int] = {n.name: 0 for n in self.nodes}
        #: Rows in arrival order, annotated with the reporting node.
        self.new_rows: List[Dict[str, Any]] = []
        self.health: List[HealthEvent] = []
        self.trace_rows: List[Dict[str, Any]] = []
        self.span_rows: List[Dict[str, Any]] = []
        self._snapshots: Dict[str, List[Dict[str, Any]]] = {}
        self.offsets: Dict[str, Tuple[float, float]] = {}
        self.dropped: Dict[str, int] = {}
        self.unreachable: Dict[str, str] = {}

    @classmethod
    def for_config(cls, config) -> "FleetAggregator":
        """Build endpoints for a live deployment from its spec/RtConfig:
        every replica and proxy of its one replica group. Only hosts, sites
        and ports are needed: the key-free layout.
        """
        from repro.rt.bootstrap import fleet_layout, host_ports

        layout = fleet_layout(config)
        ports = host_ports(layout, config.base_port)
        nodes = [
            NodeEndpoint(
                name=host,
                control_port=ports[host][1],
                site=layout.topology.site_of(host).name,
                role=role,
                host=config.bind_host,
            )
            for hosts, role in ((layout.all_hosts, "replica"),
                                (sorted(layout.proxy_of_client.values()), "client"))
            for host in hosts
        ]
        return cls(nodes, epoch=config.epoch)

    def _now(self) -> float:
        return time.time() - self.epoch if self.epoch else time.time()

    # -- polling ------------------------------------------------------------------

    async def poll_once(self, wait: float = 0.0) -> List[Dict[str, Any]]:
        """One sweep over every node; returns the newly arrived rows."""
        from repro.rt.control import http_request

        import json

        start = len(self.new_rows)
        for node in self.nodes:
            path = f"/telemetry?since={self._cursors[node.name]}"
            if wait > 0:
                path += f"&wait={wait:g}"
            try:
                status, text = await http_request(
                    node.host, node.control_port, "GET", path,
                    timeout=max(5.0, wait + 5.0),
                )
            except OSError as exc:
                self.unreachable[node.name] = str(exc) or type(exc).__name__
                continue
            self.unreachable.pop(node.name, None)
            if status != 200:
                continue
            try:
                payload = json.loads(text)
            except ValueError:
                continue
            self._absorb(node, payload)
        return self.new_rows[start:]

    def _absorb(self, node: NodeEndpoint, payload: Dict[str, Any]) -> None:
        self._cursors[node.name] = int(payload.get("next", self._cursors[node.name]))
        dropped = int(payload.get("dropped", 0))
        if dropped:
            self.dropped[node.name] = self.dropped.get(node.name, 0) + dropped
        for row in payload.get("entries", ()):
            kind = row.get("kind")
            if kind == "snapshot":
                history = self._snapshots.setdefault(node.name, [])
                history.append(row)
                del history[:-2]  # rates need exactly the last two
            elif kind == "health":
                self.health.append(health_event_from_row(row))
            elif kind == "trace":
                self.trace_rows.append(row)
            elif kind == "span":
                self.span_rows.append(row)
            self.new_rows.append({"node": node.name, **row})

    async def probe_clocks(self) -> Dict[str, Tuple[float, float]]:
        """Estimate each node's clock offset (seconds) and uncertainty."""
        from repro.rt.control import http_request

        import json

        for node in self.nodes:
            t_request = self._now()
            try:
                status, text = await http_request(
                    node.host, node.control_port, "GET", "/clock", timeout=2.0
                )
            except OSError:
                continue
            t_response = self._now()
            if status != 200:
                continue
            try:
                remote_now = float(json.loads(text)["now"])
            except (ValueError, KeyError, TypeError):
                continue
            self.offsets[node.name] = estimate_offset(
                t_request, remote_now, t_response
            )
        return self.offsets

    # -- derived state ------------------------------------------------------------

    def _rate(self, name: str, series: str) -> Optional[float]:
        history = self._snapshots.get(name, [])
        if len(history) < 2:
            return None
        prev, last = history[-2], history[-1]
        dt = last["time"] - prev["time"]
        if dt <= 0:
            return None
        delta = last["counters"].get(series, 0.0) - prev["counters"].get(series, 0.0)
        return delta / dt

    def _latest(self, name: str) -> Optional[Dict[str, Any]]:
        history = self._snapshots.get(name, [])
        return history[-1] if history else None

    def stitch(self) -> SpanTracker:
        """Cross-node spans from the merged milestone rows (time-sorted)."""
        tracker = SpanTracker()
        for row in sorted(self.trace_rows, key=lambda r: r["time"]):
            tracker.on_event(
                TraceEvent(
                    time=row["time"],
                    category=row["category"],
                    host=row["host"],
                    detail=row.get("detail") or {},
                )
            )
        return tracker

    def stitch_report(self) -> Dict[str, Any]:
        """Timeline completeness: the tentpole's ≥95% acceptance metric."""
        tracker = self.stitch()
        spans = tracker.all_spans()
        completed = tracker.completed()
        full = [
            s
            for s in completed
            if all(phase in s.marks for phase in REQUIRED_PHASES)
        ]
        exact = 0
        for span in completed:
            latency = span.latency or 0.0
            phase_sum = sum(span.phase_durations().values())
            if latency <= 0 or abs(phase_sum - latency) <= 0.05 * latency:
                exact += 1
        return {
            "spans": len(spans),
            "completed": len(completed),
            "complete_timelines": len(full),
            "completeness": (len(full) / len(completed)) if completed else 0.0,
            "phase_sum_within_5pct": exact,
            "summary": tracker.phase_summary(),
        }

    # -- rendering ----------------------------------------------------------------

    def site_latency_matrix(self) -> Dict[Tuple[str, str], float]:
        """p50 one-way delay (seconds) per (src site → dst site) link, as
        measured by receivers from the HLC stamp on every traced frame."""
        matrix: Dict[Tuple[str, str], float] = {}
        for node in self.nodes:
            snapshot = self._latest(node.name)
            if snapshot is None or not node.site:
                continue
            for series, stats in snapshot.get("histograms", {}).items():
                if not series.startswith("watch.link_delay{"):
                    continue
                src_site = series[len("watch.link_delay{src=") : -1]
                if stats.get("count"):
                    matrix[(src_site, node.site)] = stats["p50"]
        return matrix

    def render_top(self, now: Optional[float] = None) -> str:
        """The ``repro obs top`` screen as one multi-line string."""
        now = self._now() if now is None else now
        replicas = [n for n in self.nodes if n.role == "replica"]
        clients = [n for n in self.nodes if n.role == "client"]
        lines = [
            f"fleet @ t={now:.1f}s — {len(replicas)} replicas, "
            f"{len(clients)} clients"
            + (f", {len(self.unreachable)} unreachable" if self.unreachable else "")
        ]
        header = (
            f"{'node':<14} {'site':<8} {'role':<8} {'upd/s':>7} {'vc/s':>6} "
            f"{'fail/s':>7} {'queue':>6} {'p99 ms':>8} {'skew ms':>9}"
        )
        lines.append(header)
        for node in self.nodes:
            snapshot = self._latest(node.name)
            if snapshot is None:
                status = "DOWN" if node.name in self.unreachable else "..."
                lines.append(f"{node.name:<14} {node.site:<8} {node.role:<8} {status:>7}")
                continue
            updates = self._rate(
                node.name,
                "proxy.completed" if node.role == "client" else "replica.updates_executed",
            )
            vc = self._rate(node.name, "prime.view_change.adopted")
            failover = self._rate(node.name, "intro.failovers")
            queue = snapshot.get("gauges", {}).get("net.outbound_queue_depth", 0.0)
            p99 = None
            latency = snapshot.get("histograms", {}).get("proxy.latency")
            if latency and latency.get("count"):
                p99 = latency["p99"] * 1000
            offset = self.offsets.get(node.name)

            def fmt(value, spec=".1f"):
                return "-" if value is None else format(value, spec)

            skew = "-" if offset is None else f"{offset[0] * 1000:+.1f}±{offset[1] * 1000:.1f}"
            lines.append(
                f"{node.name:<14} {node.site:<8} {node.role:<8} "
                f"{fmt(updates):>7} {fmt(vc, '.2f'):>6} {fmt(failover, '.2f'):>7} "
                f"{queue:>6g} {fmt(p99):>8} {skew:>9}"
            )
        matrix = self.site_latency_matrix()
        if matrix:
            sites = sorted({s for pair in matrix for s in pair})
            lines.append("")
            lines.append("one-way p50 latency, ms (row=src, col=dst):")
            lines.append(f"{'':<8}" + "".join(f"{s:>8}" for s in sites))
            for src in sites:
                cells = []
                for dst in sites:
                    value = matrix.get((src, dst))
                    cells.append("-" if value is None else f"{value * 1000:.1f}")
                lines.append(f"{src:<8}" + "".join(f"{c:>8}" for c in cells))
        summary = self.stitch_report()["summary"]
        if summary["count"]:
            phases = " ".join(
                f"{name} {duration * 1000:.1f}ms"
                for name, duration in summary["phases"].items()
            )
            lines.append("")
            lines.append(
                f"spans: {summary['count']} complete, "
                f"mean e2e {summary['mean_latency'] * 1000:.1f}ms ({phases})"
            )
        for event in self.health[-5:]:
            lines.append(f"health: {event.describe()}")
        if self.dropped:
            lost = ", ".join(f"{k}:{v}" for k, v in sorted(self.dropped.items()))
            lines.append(f"ring rows lost to slow polling: {lost}")
        return "\n".join(lines)
