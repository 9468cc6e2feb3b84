"""Metrics registry: counters, gauges and histograms.

One export surface for the whole library.  Hot paths keep plain numbers
(the scheduler's ``perf`` slots and ``stats`` dict, the resilience
layer's counters); a registry *pulls* them through its
:meth:`MetricsRegistry.add_source` readers whenever it is snapshotted or
exported, so the same values reach :meth:`MetricsRegistry.snapshot` and
:meth:`MetricsRegistry.to_prometheus` without a counter object between
the scheduler and its own numbers.  Harness-level counts (nemesis plans
run, fault-site coverage) and latency histograms are pushed as before.

The module imports nothing from the rest of the library; the one
:func:`percentile` everything else uses lives here.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedCounter",
    "WindowedHistogram",
    "MetricsRegistry",
    "percentile",
]

Number = Union[int, float]

#: What a registry pulls: ``{group: {name: value}}``, exported as
#: ``<group>.<name>``.
Source = Callable[[], Mapping[str, Mapping[str, Number]]]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile; 0 for empty input."""
    return _interpolate(sorted(values), fraction)


def _interpolate(ordered: List[float], fraction: float) -> float:
    """:func:`percentile` of an already ascending sample."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


def _summary(count: int, total: float, ordered: List[float]) -> Dict[str, float]:
    """count/sum/mean/p50/p95/p99/max of an ascending sample."""
    return {
        "count": count,
        "sum": round(total, 6),
        "mean": round(total / count, 6) if count else 0.0,
        "p50": round(_interpolate(ordered, 0.50), 6),
        "p95": round(_interpolate(ordered, 0.95), 6),
        "p99": round(_interpolate(ordered, 0.99), 6),
        "max": ordered[-1] if ordered else 0.0,
    }


class Gauge:
    """A point-in-time value (queue depth, open breakers, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def __int__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A sample distribution summarised as p50/p95/p99.

    Keeps the raw observations (simulation runs are bounded); a cap
    protects pathological callers by dropping the *oldest half* once
    ``max_samples`` is exceeded, which biases long-running streams
    toward recent behaviour.
    """

    __slots__ = ("name", "count", "total", "_samples", "max_samples")

    def __init__(self, name: str, max_samples: int = 100_000) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._samples: List[float] = []
        self.max_samples = max_samples

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        samples = self._samples
        samples.append(float(value))
        if len(samples) > self.max_samples:
            del samples[: len(samples) // 2]

    def summary(self) -> Dict[str, float]:
        return _summary(self.count, self.total, sorted(self._samples))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name} n={self.count})"


class _Reservoir:
    """Deterministic bounded sample of one window's observations.

    Every ``stride``-th observation is retained; when the buffer fills,
    every other retained sample is dropped and the stride doubles.  The
    kept samples stay spread across the window without any randomness
    (the library bans unseeded RNG — determinism is what makes chaos
    runs replayable), at the cost of a mild bias toward early samples
    within a stride period.
    """

    __slots__ = ("cap", "stride", "seen", "count", "total", "samples")

    def __init__(self, cap: int) -> None:
        self.cap = max(2, cap)
        self.stride = 1
        self.seen = 0
        self.count = 0
        self.total = 0.0
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        if self.seen % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) > self.cap:
                del self.samples[1::2]
                self.stride *= 2
        self.seen += 1
        self.count += 1
        self.total += value


class WindowedCounter:
    """Counts bucketed into a ring of fixed-width virtual-time windows.

    Holds the most recent ``windows`` buckets of ``width`` virtual
    seconds each; older buckets are evicted, so memory is O(windows)
    no matter how long the run streams.  ``lifetime`` keeps the
    since-start total (cheap — one float).
    """

    __slots__ = ("name", "width", "windows", "lifetime", "_buckets")

    def __init__(
        self, name: str, width: float = 5.0, windows: int = 12
    ) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        if windows < 1:
            raise ValueError("need at least one window")
        self.name = name
        self.width = width
        self.windows = windows
        self.lifetime = 0.0
        #: window index -> count, insertion-ordered oldest first.
        self._buckets: Dict[int, float] = {}

    def _bucket(self, now: float) -> int:
        return int(now // self.width)

    def _evict(self, index: int) -> None:
        floor = index - self.windows + 1
        for stale in [key for key in self._buckets if key < floor]:
            del self._buckets[stale]

    def inc(self, now: float, amount: Number = 1) -> None:
        index = self._bucket(now)
        self._buckets[index] = self._buckets.get(index, 0.0) + amount
        self.lifetime += amount
        self._evict(index)

    def total(self, now: Optional[float] = None) -> float:
        """Sum over retained windows (evicting first if ``now`` given)."""
        if now is not None:
            self._evict(self._bucket(now))
        return sum(self._buckets.values())


class WindowedHistogram:
    """Sliding-window distribution: a ring of bounded reservoirs.

    Each ``width``-wide virtual-time window holds at most
    ``cap_per_window`` deterministically decimated samples; only the
    most recent ``windows`` windows are retained.  ``summary`` merges
    the retained reservoirs, so percentiles reflect recent behaviour
    and memory stays O(windows x cap) over an unbounded stream.
    """

    __slots__ = (
        "name",
        "width",
        "windows",
        "cap_per_window",
        "lifetime_count",
        "lifetime_total",
        "_ring",
    )

    def __init__(
        self,
        name: str,
        width: float = 5.0,
        windows: int = 12,
        cap_per_window: int = 256,
    ) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        if windows < 1:
            raise ValueError("need at least one window")
        self.name = name
        self.width = width
        self.windows = windows
        self.cap_per_window = cap_per_window
        self.lifetime_count = 0
        self.lifetime_total = 0.0
        self._ring: Dict[int, _Reservoir] = {}

    def _bucket(self, now: float) -> int:
        return int(now // self.width)

    def _evict(self, index: int) -> None:
        floor = index - self.windows + 1
        for stale in [key for key in self._ring if key < floor]:
            del self._ring[stale]

    def observe(self, now: float, value: Number) -> None:
        index = self._bucket(now)
        reservoir = self._ring.get(index)
        if reservoir is None:
            reservoir = self._ring[index] = _Reservoir(self.cap_per_window)
        reservoir.observe(float(value))
        self.lifetime_count += 1
        self.lifetime_total += value
        self._evict(index)

    def summary(self, now: Optional[float] = None) -> Dict[str, float]:
        """p50/p95/p99 over the retained windows' merged samples."""
        if now is not None:
            self._evict(self._bucket(now))
        count = 0
        total = 0.0
        merged: List[float] = []
        for reservoir in self._ring.values():
            count += reservoir.count
            total += reservoir.total
            merged.extend(reservoir.samples)
        return _summary(count, total, sorted(merged))


def _prom_name(prefix: str, name: str) -> str:
    cleaned = []
    for char in name:
        cleaned.append(char if (char.isalnum() or char == "_") else "_")
    return f"{prefix}_{''.join(cleaned)}" if prefix else "".join(cleaned)


class MetricsRegistry:
    """Named counters, gauges and histograms with get-or-create access."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        #: Readers pulled at export time (see :meth:`add_source`).
        self.sources: List[Source] = []
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- get-or-create accessors --------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def add_source(self, read: Source) -> None:
        """Pull ``read()`` into every later snapshot and export.

        A scheduler registers its ``counters`` method here; values of
        the same name from several sources (the runs of a sweep sharing
        one registry) add up.
        """
        self.sources.append(read)

    def _counter_values(self) -> Dict[str, Number]:
        """Pushed counters plus everything the sources report, by name."""
        values: Dict[str, Number] = {
            name: counter.value for name, counter in self.counters.items()
        }
        for read in self.sources:
            for group, counts in read().items():
                for key, value in counts.items():
                    name = f"{group}.{key}"
                    values[name] = values.get(name, 0) + value
        return dict(sorted(values.items()))

    # -- export -------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Flat name -> value mapping (histograms expand to summaries)."""
        values: Dict[str, object] = dict(self._counter_values())
        for name, gauge in sorted(self.gauges.items()):
            values[name] = gauge.value
        for name, histogram in sorted(self.histograms.items()):
            for stat, stat_value in histogram.summary().items():
                values[f"{name}.{stat}"] = stat_value
        return values

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name, value in self._counter_values().items():
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, gauge in sorted(self.gauges.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {gauge.value}")
        for name, histogram in sorted(self.histograms.items()):
            metric = _prom_name(prefix, name)
            summary = histogram.summary()
            lines.append(f"# TYPE {metric} summary")
            for quantile in ("p50", "p95", "p99"):
                lines.append(
                    f'{metric}{{quantile="0.{quantile[1:]}"}} {summary[quantile]}'
                )
            lines.append(f"{metric}_sum {summary['sum']}")
            lines.append(f"{metric}_count {summary['count']}")
        return "\n".join(lines) + ("\n" if lines else "")
