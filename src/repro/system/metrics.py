"""Latency metrics matching the paper's reporting format.

Table II reports, per configuration: average latency, the percentage of
updates under 100 ms and 200 ms, and the 0.1 / 1 / 50 / 99 / 99.9
percentiles. Figure 2 plots per-update latency against submission time.
:class:`LatencyRecorder` collects the samples; :class:`LatencyStats`
computes the table row; :meth:`LatencyRecorder.timeline` yields the figure
series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.proxy import ClientProxy
from repro.obs.registry import percentile


@dataclass(frozen=True)
class LatencySample:
    """One completed update."""

    submit_time: float
    latency: float
    client_id: str
    client_seq: int


@dataclass(frozen=True)
class LatencyStats:
    """The Table II row for one configuration."""

    count: int
    average: float
    pct_under_100ms: float
    pct_under_200ms: float
    p0_1: float
    p1: float
    p50: float
    p99: float
    p99_9: float

    @property
    def is_empty(self) -> bool:
        """True for the no-samples sentinel (:data:`EMPTY_STATS`)."""
        return self.count == 0

    def row(self, label: str) -> str:
        if self.is_empty:
            return f"{label:28s} n=     0 (no completed updates in window)"

        def ms(value: float) -> str:
            return f"{value * 1000:7.1f}"

        return (
            f"{label:28s} n={self.count:6d} avg={ms(self.average)}ms "
            f"<100ms={self.pct_under_100ms:6.2f}% <200ms={self.pct_under_200ms:6.2f}% "
            f"p0.1={ms(self.p0_1)} p1={ms(self.p1)} p50={ms(self.p50)} "
            f"p99={ms(self.p99)} p99.9={ms(self.p99_9)}"
        )


#: Sentinel returned by :meth:`LatencyRecorder.stats` for empty windows —
#: zero-traffic windows are a reportable outcome, not an exception.
EMPTY_STATS = LatencyStats(
    count=0,
    average=0.0,
    pct_under_100ms=0.0,
    pct_under_200ms=0.0,
    p0_1=0.0,
    p1=0.0,
    p50=0.0,
    p99=0.0,
    p99_9=0.0,
)


class LatencyRecorder:
    """Collects latency samples from any number of proxies."""

    def __init__(self) -> None:
        self.samples: List[LatencySample] = []

    def attach(self, proxy: ClientProxy) -> None:
        """Record every completed update from ``proxy``."""

        def on_response(seq: int, _body: bytes, latency: float) -> None:
            submit = proxy.kernel.now - latency
            self.samples.append(
                LatencySample(
                    submit_time=submit,
                    latency=latency,
                    client_id=proxy.client_id,
                    client_seq=seq,
                )
            )

        proxy.on_response(on_response)

    def stats(self, since: float = 0.0, until: Optional[float] = None) -> LatencyStats:
        """Aggregate statistics over samples submitted in [since, until).

        An empty window returns :data:`EMPTY_STATS` (check ``.is_empty``)
        rather than raising — scenario reports over zero-traffic windows
        are legitimate.
        """
        values = sorted(
            s.latency
            for s in self.samples
            if s.submit_time >= since and (until is None or s.submit_time < until)
        )
        if not values:
            return EMPTY_STATS
        count = len(values)
        return LatencyStats(
            count=count,
            average=sum(values) / count,
            pct_under_100ms=100.0 * sum(1 for v in values if v < 0.100) / count,
            pct_under_200ms=100.0 * sum(1 for v in values if v < 0.200) / count,
            p0_1=percentile(values, 0.1),
            p1=percentile(values, 1),
            p50=percentile(values, 50),
            p99=percentile(values, 99),
            p99_9=percentile(values, 99.9),
        )

    def timeline(self) -> List[Tuple[float, float]]:
        """(submit_time, latency) series in submission order (Figure 2)."""
        return sorted((s.submit_time, s.latency) for s in self.samples)

    def max_latency(self, since: float = 0.0, until: Optional[float] = None) -> float:
        """Largest latency in the window; 0.0 when the window is empty."""
        values = [
            s.latency
            for s in self.samples
            if s.submit_time >= since and (until is None or s.submit_time < until)
        ]
        if not values:
            return 0.0
        return max(values)
