"""A thread-safe metrics registry: counters, gauges, histograms.

The registry is the numeric half of the observability layer (the
tracer in :mod:`repro.obs.trace` is the timing half).  Design goals,
in order:

1. *Zero overhead when disabled* — every metric type has a null
   implementation whose methods are empty; library code never checks
   an "enabled" flag.
2. *Labels* — one logical metric ("scan.attempts") fans out into
   label-distinguished series (``vantage="us"`` vs ``vantage="au"``),
   mirroring the per-vantage breakdowns in the paper's Section 3.1.
3. *Exportable* — ``snapshot()`` returns plain dicts and
   ``to_json()`` serialises them, so campaign metrics land in a file
   a later PR (or a human) can diff.

Histograms keep fixed buckets *and* enough state (count/sum/min/max)
for a streaming quantile estimate via linear interpolation inside the
bucket containing the requested rank.
"""

from __future__ import annotations

import bisect
import json
import threading
from collections.abc import Iterable, Mapping

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullMetricsRegistry",
]

#: Default histogram bucket upper bounds: a coarse exponential ladder
#: wide enough for byte counts and narrow enough for pool sizes.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (attempts, successes, bytes)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go both ways (throttle seconds, cache size)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution with a streaming quantile estimate.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in a +Inf overflow bucket.  ``quantile(q)`` linearly
    interpolates within the bucket holding rank ``q * count``, clamped
    to the observed min/max — a classic streaming estimate that needs
    O(len(buckets)) memory regardless of observation volume.
    """

    __slots__ = (
        "name", "labels", "bounds", "_counts", "_count", "_sum",
        "_min", "_max", "_lock",
    )

    def __init__(self, name: str, labels: LabelKey = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def bucket_counts(self) -> dict[str, int]:
        """``{upper_bound: count}`` including the ``+Inf`` overflow."""
        labels = [str(b) for b in self.bounds] + ["+Inf"]
        return dict(zip(labels, self._counts))

    def quantile(self, q: float) -> float:
        """Streaming estimate of the ``q``-quantile (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self._count:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index else self._min
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self._max
                )
                lower = max(lower, self._min)
                upper = min(upper, self._max)
                if upper <= lower:
                    return lower
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self._max


class MetricsRegistry:
    """Creates, deduplicates, and exports labeled metrics.

    ``counter(name, **labels)`` (and friends) return the same object
    for the same (name, labels) pair, so hot paths may either call
    through the registry every time or cache the returned instance.
    Registering one name as two different types is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, type] = {}
        self._series: dict[tuple[str, LabelKey], object] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # -- creation ------------------------------------------------------

    def _get(self, cls: type, name: str, labels: Mapping[str, object],
             **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._families.get(name)
            if existing is not None and existing is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.__name__}, not {cls.__name__}"
                )
            series = self._series.get(key)
            if series is None:
                self._families[name] = cls
                series = cls(name, key[1], **kwargs)
                self._series[key] = series
            return series

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, *, buckets: Iterable[float] | None = None,
                  **labels: object) -> Histogram:
        with self._lock:
            if buckets is not None:
                self._buckets.setdefault(name, tuple(buckets))
            bounds = self._buckets.get(name, DEFAULT_BUCKETS)
        return self._get(Histogram, name, labels, buckets=bounds)

    # -- introspection -------------------------------------------------

    def series(self, name: str) -> list[object]:
        """Every labeled series registered under ``name``."""
        with self._lock:
            return [m for (n, _), m in self._series.items() if n == name]

    def value(self, name: str, **labels: object) -> float:
        """Counter/gauge value for an exact series, 0.0 if absent."""
        series = self._series.get((name, _label_key(labels)))
        return series.value if series is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all label series."""
        return sum(m.value for m in self.series(name))

    def __len__(self) -> int:
        return len(self._series)

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict export of every family, stable ordering."""
        with self._lock:
            items = sorted(self._series.items())
            families = dict(self._families)
        out: dict[str, dict] = {}
        for (name, labels), metric in items:
            family = out.setdefault(name, {
                "type": families[name].__name__.lower(),
                "series": [],
            })
            entry: dict[str, object] = {"labels": dict(labels)}
            if isinstance(metric, Histogram):
                entry.update(
                    count=metric.count,
                    sum=metric.sum,
                    min=metric.min,
                    max=metric.max,
                    mean=metric.mean,
                    buckets=metric.bucket_counts(),
                    quantiles={
                        "p50": metric.quantile(0.50),
                        "p90": metric.quantile(0.90),
                        "p99": metric.quantile(0.99),
                    },
                )
            else:
                entry["value"] = metric.value
            family["series"].append(entry)
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Null implementations — installed by default, every method a no-op.
# ----------------------------------------------------------------------

class NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def bucket_counts(self) -> dict[str, int]:
        return {}


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullMetricsRegistry:
    """The disabled-instrumentation registry: shared no-op singletons."""

    __slots__ = ()

    def counter(self, name: str, **labels: object) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, *, buckets=None, **labels) -> NullHistogram:
        return _NULL_HISTOGRAM

    def series(self, name: str) -> list[object]:
        return []

    def value(self, name: str, **labels: object) -> float:
        return 0.0

    def total(self, name: str) -> float:
        return 0.0

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict[str, dict]:
        return {}

    def to_json(self, *, indent: int | None = 2) -> str:
        return "{}"


NULL_REGISTRY = NullMetricsRegistry()
