"""Counter/Gauge/Histogram math, labels, export, thread safety."""

import json
import sys
import threading
import time

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


class TestRepeatedLookups:
    """A repeated lookup is answered from the spelling it was first
    resolved under, and must name the series the sorted lookup names."""

    def test_another_label_order_names_the_same_series(self, registry):
        first = registry.counter("c", a="x", b="y")
        for _ in range(2):  # resolved, then served from the cache
            assert registry.counter("c", b="y", a="x") is first
            assert registry.counter("c", a="x", b="y") is first
        assert len(registry) == 1

    @pytest.mark.parametrize("first", [1, "1", True, 1.0])
    def test_a_label_value_names_its_series_by_str(self, registry, first):
        """``1`` and ``"1"`` are one series; ``True`` and ``1.0``, equal
        to ``1`` and hashing alike, are a series each, whichever
        spelling was resolved first."""
        registry.counter("c", v=first).inc()
        for value in (1, "1", True, 1.0) * 2:
            registry.counter("c", v=value).inc()
        assert registry.counter("c", v=1) is registry.counter("c", v="1")
        expected = {"1": 4, "True": 2, "1.0": 2}
        expected[str(first)] += 1
        assert {name: registry.value("c", v=name)
                for name in expected} == expected
        assert len(registry) == 3

    def test_a_repeated_lookup_takes_no_lock(self, registry):
        counter = registry.counter("c", a="1")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h", buckets=(1,), a="1")

        class Refused:
            def __enter__(self):
                raise AssertionError("the registry lock was taken")

            def __exit__(self, *exc_info):
                return False

        registry._lock = Refused()
        assert registry.counter("c", a="1") is counter
        assert registry.gauge("g") is gauge
        assert registry.histogram("h", buckets=(1,), a="1") is histogram
        assert registry.histogram("h", a="1") is histogram

    def test_a_type_clash_raises_after_the_name_is_cached(self, registry):
        registry.counter("x", a="1").inc()
        registry.counter("x", a="1").inc()
        registry.gauge("g")
        registry.gauge("g")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x", a="1")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x", a="1")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("g")
        assert registry.value("x", a="1") == 2

    def test_an_unhashable_label_value_names_its_series_by_str(self,
                                                              registry):
        series = registry.counter("c", v=[1, 2])
        assert registry.counter("c", v=[1, 2]) is series
        assert registry.counter("c", v="[1, 2]") is series
        registry.counter("c", v={"k": []}).inc()
        assert registry.value("c", v="{'k': []}") == 1

    def test_the_first_buckets_given_still_reach_later_series(self,
                                                             registry):
        first = registry.histogram("h", a="1")
        assert registry.histogram("h", buckets=(1, 2), a="1") is first
        assert first.bounds == tuple(float(b) for b in DEFAULT_BUCKETS)
        assert registry.histogram("h", a="2").bounds == (1.0, 2.0)
        assert registry.histogram("h", buckets=(5,), a="2").bounds == (
            1.0, 2.0)


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


    def test_racing_lookups_resolve_one_series_per_label_set(self):
        """Eight threads resolve and bump the same labelled counters,
        half of them spelling the labels in the other order, with the
        interpreter switching threads every few microseconds: every
        increment lands, in one series per label set."""
        label_sets = [{"kind": kind, "n": n}
                      for kind in ("a", "b") for n in range(3)]
        rounds = 100
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 1.0
            while True:
                registry = MetricsRegistry()
                start = threading.Barrier(8, timeout=30)

                def worker(flip):
                    start.wait()
                    for _ in range(rounds):
                        for labels in label_sets:
                            if flip:
                                labels = dict(reversed(labels.items()))
                            registry.counter("race", **labels).inc()

                threads = [threading.Thread(target=worker, args=(i % 2,))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert len(registry.series("race")) == len(label_sets)
                for labels in label_sets:
                    assert registry.value("race", **labels) == 8 * rounds
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(switch)


class TestNullRegistry:
    def test_null_registry_accepts_everything_and_exports_nothing(self):
        NULL_REGISTRY.counter("c", a=1).inc(5)
        NULL_REGISTRY.gauge("g").set(2)
        NULL_REGISTRY.histogram("h").observe(3)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.to_json() == "{}"
        assert NULL_REGISTRY.total("c") == 0.0
        assert len(NULL_REGISTRY) == 0
