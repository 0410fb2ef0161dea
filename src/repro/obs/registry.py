"""Metrics registry: counters, gauges, and time-windowed histograms.

Hosts register instruments via a cheap handle API::

    acks = metrics.counter("prime.preorder.acks")
    acks.inc()
    metrics.histogram("proxy.latency").observe(0.042)

Handles are cached by (name, labels), so fetching the same instrument twice
returns the same object; hot paths should still hoist the handle out of the
loop (``self._acks = metrics.counter(...)`` in ``__init__``) since a dict
lookup per event is the dominant cost.

Disabled deployments use :data:`NULL_METRICS`, a null-object registry whose
instruments discard every observation. Instrumentation sites therefore never
branch on "is metrics enabled" — they always call through the handle.

Histograms are time-windowed: every observation is stored as ``(t, value)``
(t from the registry's ``now_fn``, normally the simulation kernel clock), and
:meth:`Histogram.stats` aggregates over ``[since, until)`` so FaultLab can ask
"what was p99 during the fault window" after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class HistogramStats:
    """Windowed aggregate of one histogram."""

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p99: float
    p99_9: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


EMPTY_HISTOGRAM_STATS = HistogramStats(
    count=0, total=0.0, minimum=0.0, maximum=0.0, p50=0.0, p99=0.0, p99_9=0.0
)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of pre-sorted values (p in [0, 100]).

    The one percentile of the code base. Interpolating as
    ``lo + (hi - lo) * fraction`` is exact when the two neighbours are
    equal (``lo * (1 - fraction) + hi * fraction`` can land one ulp below
    both, which once made p99 < p50), and the clamp is to the neighbours,
    so percentiles of one list are monotone in ``p``.
    """
    if not sorted_values:
        raise ValueError("no samples")
    rank = (p / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    lo = sorted_values[low]
    hi = sorted_values[min(low + 1, len(sorted_values) - 1)]
    return min(max(lo + (hi - lo) * (rank - low), lo), hi)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-set value, or a live callback reading."""

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._value = value

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Time-stamped observations with windowed percentile stats."""

    __slots__ = ("name", "labels", "samples", "_now")

    def __init__(self, name: str, labels: LabelsKey, now_fn: Callable[[], float]):
        self.name = name
        self.labels = labels
        self.samples: List[Tuple[float, float]] = []
        self._now = now_fn

    def observe(self, value: float) -> None:
        self.samples.append((self._now(), value))

    def stats(
        self, since: Optional[float] = None, until: Optional[float] = None
    ) -> HistogramStats:
        """Aggregate over the half-open window ``[since, until)``.

        ``None`` bounds are unbounded, and that is the default on *both*
        ends: live-substrate clocks are epoch-relative and run negative
        during warmup, so a ``since=0.0`` default would silently drop
        pre-epoch samples from whole-run stats. Half-openness means
        adjacent windows ``[a, b)``/``[b, c)`` partition the samples — a
        sample stamped exactly at a rotation instant lands in the later
        window, and in exactly one window.
        """
        values = sorted(
            v
            for t, v in self.samples
            if (since is None or t >= since) and (until is None or t < until)
        )
        if not values:
            return EMPTY_HISTOGRAM_STATS
        return HistogramStats(
            count=len(values),
            total=sum(values),
            minimum=values[0],
            maximum=values[-1],
            p50=percentile(values, 50),
            p99=percentile(values, 99),
            p99_9=percentile(values, 99.9),
        )


class MetricsRegistry:
    """Home for every instrument in one deployment."""

    def __init__(self, now_fn: Optional[Callable[[], float]] = None):
        self._now = now_fn or (lambda: 0.0)
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    @property
    def enabled(self) -> bool:
        return True

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def register_gauge(
        self, name: str, fn: Callable[[], float], **labels: object
    ) -> Gauge:
        gauge = self.gauge(name, **labels)
        gauge.set_function(fn)
        return gauge

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], self._now)
        return instrument

    # -- read side -----------------------------------------------------------------

    def counters(self) -> List[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def counter_values(self) -> Dict[Tuple[str, LabelsKey], float]:
        """Snapshot of every counter, for delta computation (FaultLab windows)."""
        return {key: c.value for key, c in self._counters.items()}


class _NullInstrument:
    """Discards observations; stands in for every instrument type."""

    __slots__ = ()
    name = "null"
    labels: LabelsKey = ()
    value = 0.0
    samples: List[Tuple[float, float]] = []

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def stats(
        self, since: Optional[float] = None, until: Optional[float] = None
    ) -> HistogramStats:
        return EMPTY_HISTOGRAM_STATS


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Registry used when metrics are disabled: every handle is a no-op."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def register_gauge(self, name: str, fn, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT


NULL_METRICS = NullMetricsRegistry()
