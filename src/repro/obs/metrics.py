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
import math
import threading
from collections.abc import Iterable, Mapping

from repro.errors import MetricsError

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
    "load_snapshot",
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
    for the same (name, labels) pair, so hot paths may call through
    the registry every time.  A series is named by its labels' names
    and the ``str()`` of their values, in any order: ``a=1, b="x"``
    and ``b="x", a="1"`` are one series, ``1.0`` and ``True`` two more.
    Registering one name as two different types is an error.

    The first call of each spelling resolves the series under the
    lock, sorting its labels; the spelling — the name, then the label
    names in call order and the values' ``str()`` (a bare name without
    labels) — then maps straight to the series, so a repeated call is
    one dictionary lookup, without the sort or the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, type] = {}
        self._series: dict[tuple[str, LabelKey], object] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        #: per metric type, each call spelling resolved → its series
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

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
        spelling = ((name, *labels, *map(str, labels.values()))
                    if labels else name)
        series = self._counters.get(spelling)
        if series is None:
            series = self._counters[spelling] = self._get(Counter, name,
                                                          labels)
        return series

    def gauge(self, name: str, **labels: object) -> Gauge:
        spelling = ((name, *labels, *map(str, labels.values()))
                    if labels else name)
        series = self._gauges.get(spelling)
        if series is None:
            series = self._gauges[spelling] = self._get(Gauge, name, labels)
        return series

    def histogram(self, name: str, *, buckets: Iterable[float] | None = None,
                  **labels: object) -> Histogram:
        spelling = ((name, *labels, *map(str, labels.values()))
                    if labels else name)
        series = self._histograms.get(spelling)
        # the first ``buckets`` given for a name set it for every
        # series of that name created later
        if series is not None and (buckets is None or name in self._buckets):
            return series
        with self._lock:
            if buckets is not None:
                self._buckets.setdefault(name, tuple(buckets))
            bounds = self._buckets.get(name, DEFAULT_BUCKETS)
        series = self._histograms[spelling] = self._get(
            Histogram, name, labels, buckets=bounds)
        return series

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


def load_snapshot(path: str) -> dict[str, dict]:
    """Read a metrics snapshot file (``scan --metrics-out``) and check it.

    The snapshot comes back only when every family has the shape
    :meth:`MetricsRegistry.snapshot` writes, so the table and
    OpenMetrics renderers and the run report can read it unchecked.
    Anything else raises :class:`~repro.errors.MetricsError`: an
    unreadable file, invalid JSON, or a bad family, which the message
    names.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except OSError as exc:
        raise MetricsError(f"cannot read ({exc.strerror or exc})") from exc
    except (ValueError, RecursionError) as exc:
        raise MetricsError(f"not valid metrics JSON ({exc})") from exc
    if not isinstance(snapshot, dict):
        raise MetricsError(
            f"expected a JSON object of metric families (from 'scan "
            f"--metrics-out'), got {type(snapshot).__name__}"
        )
    for name, family in snapshot.items():
        problem = _family_problem(family)
        if problem is not None:
            raise MetricsError(f"metric family {name!r}: {problem}")
    return snapshot


def _family_problem(family: object) -> str | None:
    if not isinstance(family, dict):
        return f"expected an object, got {type(family).__name__}"
    kind = family.get("type", "counter")
    if kind not in ("counter", "gauge", "histogram"):
        return "'type' must be counter, gauge or histogram"
    series = family.get("series", [])
    if not isinstance(series, list):
        return f"'series' must be a list, got {type(series).__name__}"
    for index, entry in enumerate(series):
        problem = _series_problem(kind, entry)
        if problem is not None:
            return f"series {index}: {problem}"
    return None


def _series_problem(kind: str, entry: object) -> str | None:
    if not isinstance(entry, dict):
        return f"expected an object, got {type(entry).__name__}"
    labels = entry.get("labels", {})
    if not (isinstance(labels, dict)
            and all(isinstance(v, str) for v in labels.values())):
        return "'labels' must be an object of string values"
    if kind != "histogram":
        return _number_problem(entry, "value")
    for key in ("count", "sum", "min", "max", "mean"):
        problem = _number_problem(entry, key)
        if problem is not None:
            return problem
    for key in ("buckets", "quantiles"):
        values = entry.get(key, {})
        if not isinstance(values, dict):
            return f"{key!r} must be an object"
        for label in values:
            if key == "buckets" and not _is_bound(label):
                return f"'buckets': bound {label!r} is not a finite number"
            problem = _number_problem(values, label)
            if problem is not None:
                return f"{key!r}: {problem}"
    return None


def _number_problem(entry: dict, key: str) -> str | None:
    value = entry.get(key, 0)
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return None
    except (TypeError, OverflowError):  # not a number, or too large
        pass
    return f"{key!r} must be a finite number"


def _is_bound(label: str) -> bool:
    """A histogram bucket key: ``"+Inf"`` or a finite number."""
    try:
        return label == "+Inf" or math.isfinite(float(label))
    except ValueError:
        return False


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
