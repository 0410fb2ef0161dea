"""Per-layer metrics derived from the counters the program already emits.

Both substrates publish the same instrument names: the sim through its
in-process :class:`~repro.obs.registry.MetricsRegistry`, the live fleet
through ``merged/metrics.jsonl``. :class:`Instruments` is the one view
both are read into, and :func:`counter_metrics` the one derivation, so a
metric means the same thing on every workload.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


class Instruments:
    """Counter totals and histogram sums by instrument name, added up over
    every label set (host, message type, operation)."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.histogram_sums: Dict[str, float] = {}

    @staticmethod
    def _add(totals: Dict[str, float], name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + value

    @classmethod
    def from_registry(cls, registry) -> "Instruments":
        view = cls()
        for counter in registry.counters():
            cls._add(view.counters, counter.name, counter.value)
        for histogram in registry.histograms():
            cls._add(view.histogram_sums, histogram.name, sum(v for _t, v in histogram.samples))
        return view

    @classmethod
    def from_jsonl_rows(cls, rows: Iterable[Dict]) -> "Instruments":
        view = cls()
        for row in rows:
            if row.get("kind") == "counter":
                cls._add(view.counters, row["name"], row["value"])
            elif row.get("kind") == "histogram":
                cls._add(view.histogram_sums, row["name"], row.get("sum", 0.0))
        return view

    def total(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def histogram_sum(self, name: str) -> float:
        return self.histogram_sums.get(name, 0.0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when the layer did no such work."""
    return numerator / denominator if denominator else 0.0


def counter_metrics(view: Instruments, completed: int, replicas: int) -> Dict[str, float]:
    """Every counter-derived per-layer metric, per completed update where
    the name says so."""
    total = view.total
    hits, misses = total("net.frame_cache_hit"), total("net.frame_cache_miss")
    vhits, vmisses = total("crypto.verify_cache_hit"), total("crypto.verify_cache_miss")
    append_s = view.histogram_sum("store.append_seconds")
    fsync_s = view.histogram_sum("store.fsync_seconds")
    return {
        "net.msgs_per_update": ratio(total("net.send"), completed),
        "net.bytes_per_update": ratio(total("net.send_bytes"), completed),
        "net.frame_cache_hit_ratio": ratio(hits, hits + misses),
        "net.drops": total("net.drop"),
        "prime.preorder.acks_per_update": ratio(total("prime.preorder.acks"), completed),
        "prime.order.updates_per_batch": ratio(
            total("prime.order.updates_ordered"), total("prime.order.batches_executed")
        ),
        "prime.order.heartbeats": total("prime.order.heartbeats"),
        "prime.view_changes": ratio(total("prime.view_change.adopted"), replicas),
        "intro.shares_per_update": ratio(total("intro.shares_received"), completed),
        "intro.batch_fill": ratio(total("intro.injected"), total("intro.batches")),
        "intro.failovers": total("intro.failovers"),
        "proxy.retransmits": total("proxy.retransmits"),
        "crypto.threshold.partial_per_update": ratio(
            total("crypto.threshold.partial"), completed
        ),
        "crypto.threshold.combine_per_update": ratio(
            total("crypto.threshold.combine"), completed
        ),
        "crypto.threshold.verify_per_update": ratio(
            total("crypto.threshold.verify"), completed
        ),
        "crypto.rsa.verify_per_update": ratio(total("crypto.rsa.verify"), completed),
        "crypto.aes.ops_per_update": ratio(
            total("crypto.aes.encrypt") + total("crypto.aes.decrypt"), completed
        ),
        "crypto.verify_cache_hit_ratio": ratio(vhits, vhits + vmisses),
        "store.append_us": ratio(append_s, total("store.append_records")) * 1e6,
        "store.fsync_ms": ratio(fsync_s, total("store.fsyncs")) * 1e3,
        "store.fsyncs_per_update": ratio(total("store.fsyncs"), completed),
        "store.append_bytes_per_update": ratio(total("store.append_bytes"), completed),
        "xfer.bytes_received": total("xfer.bytes_received"),
    }


def span_metrics(spans: Iterable[Dict[str, float]], latencies: List[float]) -> Dict[str, float]:
    """Mean phase durations of completed spans, and how well they add up.

    ``spans`` are per-update ``{phase: seconds}`` dicts. Each phase total
    is divided by the full span count, so the four means sum to the mean
    of the per-span sums; ``span.sum_over_e2e`` compares that sum with the
    mean end-to-end latency measured independently by the proxies.
    """
    totals = {"intro": 0.0, "order": 0.0, "execute": 0.0, "respond": 0.0}
    count = 0
    grand = 0.0
    for phases in spans:
        count += 1
        for phase, seconds in phases.items():
            grand += seconds
            if phase in totals:
                totals[phase] += seconds
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    metrics = {f"span.{phase}_ms": ratio(seconds, count) * 1e3 for phase, seconds in totals.items()}
    metrics["span.sum_over_e2e"] = ratio(ratio(grand, count), mean_latency)
    return metrics
