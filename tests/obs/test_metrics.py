"""Counter/Gauge/Histogram math, labels, export, thread safety."""

import json
import threading

import pytest

from repro.errors import MetricsError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    load_snapshot,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_same_series_is_same_object(self, registry):
        assert registry.counter("c", a=1) is registry.counter("c", a=1)
        assert registry.counter("c", a=1) is not registry.counter("c", a=2)


class TestGauge:
    def test_set_and_add(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.add(-2.5)
        assert gauge.value == 7.5


class TestLabels:
    def test_label_order_is_irrelevant(self, registry):
        assert (
            registry.counter("c", a=1, b=2)
            is registry.counter("c", b=2, a=1)
        )

    def test_cardinality_tracked_per_series(self, registry):
        for vantage in ("us", "au"):
            for _ in range(3):
                registry.counter("scan", vantage=vantage).inc()
        registry.counter("scan", vantage="us", extra="x").inc()
        assert registry.value("scan", vantage="us") == 3
        assert registry.value("scan", vantage="au") == 3
        assert registry.total("scan") == 7
        assert len(registry.series("scan")) == 3

    def test_type_conflict_rejected(self, registry):
        registry.counter("name")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("name")


class TestHistogram:
    def test_count_sum_mean_min_max(self, registry):
        hist = registry.histogram("h")
        for value in (1, 2, 3, 4, 10):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == 20
        assert hist.mean == 4
        assert hist.min == 1
        assert hist.max == 10

    def test_empty_histogram_is_all_zero(self, registry):
        hist = registry.histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0
        assert all(hist.quantile(q / 10) == 0.0 for q in range(11))

    def test_single_sample_quantiles_collapse_to_it(self, registry):
        hist = registry.histogram("h")
        hist.observe(42.5)
        assert all(hist.quantile(q / 10) == 42.5 for q in range(11))
        assert hist.mean == hist.min == hist.max == 42.5

    def test_all_identical_samples_collapse_to_the_value(self, registry):
        hist = registry.histogram("h")
        for _ in range(1_000):
            hist.observe(7.0)
        assert all(hist.quantile(q / 10) == 7.0 for q in range(11))
        assert hist.sum == 7_000.0

    def test_identical_samples_on_a_bucket_boundary(self, registry):
        # a value equal to a bucket bound must not interpolate below it
        hist = registry.histogram("h", buckets=(10.0, 100.0))
        for _ in range(5):
            hist.observe(10.0)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 10.0

    def test_overflow_bucket(self):
        hist = Histogram("h", buckets=(10, 100))
        hist.observe(5)
        hist.observe(50)
        hist.observe(5000)
        counts = hist.bucket_counts()
        assert counts == {"10.0": 1, "100.0": 1, "+Inf": 1}

    def test_quantiles_are_monotone_and_bounded(self, registry):
        hist = registry.histogram("h")
        for value in range(1, 1001):
            hist.observe(value)
        q = [hist.quantile(x / 10) for x in range(11)]
        assert q == sorted(q)
        assert hist.min <= q[0] and q[-1] <= hist.max
        # p50 of 1..1000 should land near 500 (bucket interpolation)
        assert 350 <= hist.quantile(0.5) <= 650

    def test_quantile_range_checked(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h").quantile(1.5)

    def test_custom_buckets_shared_across_series(self, registry):
        first = registry.histogram("h", buckets=(1, 2), kind="a")
        second = registry.histogram("h", kind="b")
        assert first.bounds == second.bounds == (1.0, 2.0)

    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


class TestSnapshot:
    def test_snapshot_round_trips_through_json(self, registry):
        registry.counter("scan.attempts", vantage="us").inc(3)
        registry.gauge("cache.size").set(7)
        registry.histogram("bytes").observe(123)
        restored = json.loads(registry.to_json())
        assert restored == registry.snapshot()
        assert restored["scan.attempts"]["type"] == "counter"
        assert restored["scan.attempts"]["series"][0] == {
            "labels": {"vantage": "us"}, "value": 3.0,
        }
        hist = restored["bytes"]["series"][0]
        assert hist["count"] == 1
        assert hist["quantiles"]["p50"] == pytest.approx(123, abs=200)

    def test_load_snapshot_accepts_what_to_json_writes(self, registry,
                                                       tmp_path):
        registry.counter("scan.attempts", vantage="us").inc(3)
        registry.gauge("cache.size").set(7)
        registry.histogram("bytes").observe(123)
        registry.histogram("empty")
        path = tmp_path / "metrics.json"
        path.write_text(registry.to_json())
        assert load_snapshot(path) == registry.snapshot()

    @pytest.mark.parametrize("family", [
        {"type": "summary", "series": []},
        {"series": [{"labels": {"vantage": 1}, "value": 1}]},
        {"series": [{"value": True}]},
        {"type": "histogram", "series": [{"sum": float("inf")}]},
        {"type": "histogram", "series": [{"count": 10 ** 400}]},
        {"type": "histogram", "series": [{"buckets": {"nan": 1}}]},
        {"type": "histogram", "series": [{"buckets": {"1.0": "a"}}]},
        {"type": "histogram", "series": [{"quantiles": []}]},
    ])
    def test_load_snapshot_names_a_malformed_family(self, tmp_path,
                                                    family):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"ok": {"series": []}, "bad": family}))
        with pytest.raises(MetricsError, match="^metric family 'bad': "):
            load_snapshot(path)

    def test_len_counts_series(self, registry):
        registry.counter("a", x=1)
        registry.counter("a", x=2)
        registry.gauge("b")
        assert len(registry) == 3


class TestThreadSafety:
    def test_concurrent_increments_are_not_lost(self, registry):
        counter = registry.counter("c")
        hist = registry.histogram("h")

        def worker():
            for _ in range(2_000):
                counter.inc()
                hist.observe(1)
                registry.counter("labeled", thread="t").inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 16_000
        assert hist.count == 16_000
        assert registry.value("labeled", thread="t") == 16_000


class TestNullRegistry:
    def test_null_registry_accepts_everything_and_exports_nothing(self):
        NULL_REGISTRY.counter("c", a=1).inc(5)
        NULL_REGISTRY.gauge("g").set(2)
        NULL_REGISTRY.histogram("h").observe(3)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.to_json() == "{}"
        assert NULL_REGISTRY.total("c") == 0.0
        assert len(NULL_REGISTRY) == 0
