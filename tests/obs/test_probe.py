"""The timer-based sampling profiler and phase/RSS attribution."""

import time

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import SamplingProbe, phase_scope, read_rss_bytes
from repro.obs.trace import NULL_TRACER, Tracer


class TestDeterministicSampling:
    def test_sample_once_records_active_stack(self):
        tracer = Tracer()
        probe = SamplingProbe(tracer)
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert probe.sample_once() == 1
        assert probe.hotspots() == [(("outer", "inner"), 1)]

    def test_idle_samples_counted_separately(self):
        probe = SamplingProbe(Tracer())
        assert probe.sample_once() == 0
        snapshot = probe.snapshot()
        assert snapshot["idle_samples"] == 1
        assert snapshot["total_samples"] == 1
        assert snapshot["stacks"] == {}

    def test_hotspots_ordered_by_frequency(self):
        tracer = Tracer()
        probe = SamplingProbe(tracer)
        with tracer.span("hot"):
            for _ in range(3):
                probe.sample_once()
        with tracer.span("cold"):
            probe.sample_once()
        assert probe.hotspots() == [(("hot",), 3), (("cold",), 1)]

    def test_snapshot_keys_are_joined_stacks(self):
        tracer = Tracer()
        probe = SamplingProbe(tracer)
        with tracer.span("a"):
            with tracer.span("b"):
                probe.sample_once()
        assert probe.snapshot()["stacks"] == {"a > b": 1}


class TestTimerThread:
    def test_background_sampling_observes_work(self):
        tracer = Tracer()
        with SamplingProbe(tracer, interval=0.002) as probe:
            with tracer.span("work"):
                time.sleep(0.05)
        assert probe.total_samples > 0
        hotspots = dict(probe.hotspots())
        assert hotspots.get(("work",), 0) > 0

    def test_stop_is_idempotent_and_restartable(self):
        probe = SamplingProbe(Tracer(), interval=0.001)
        probe.start()
        with pytest.raises(RuntimeError):
            probe.start()
        probe.stop()
        probe.stop()
        probe.start()
        probe.stop()

    def test_null_tracer_yields_only_idle_samples(self):
        with SamplingProbe(NULL_TRACER, interval=0.001) as probe:
            time.sleep(0.01)
        assert probe.hotspots() == []
        assert probe.snapshot()["idle_samples"] == probe.total_samples

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            SamplingProbe(NULL_TRACER, interval=0)


class TestRssSampling:
    def test_read_rss_bytes_on_linux(self):
        rss = read_rss_bytes()
        if rss is None:
            pytest.skip("no /proc/self/statm on this platform")
        assert isinstance(rss, int)
        assert rss > 1 << 20  # a Python process is at least a MiB

    def test_probe_tracks_peak_and_publishes_gauge(self):
        if read_rss_bytes() is None:
            pytest.skip("no /proc/self/statm on this platform")
        with obs.instrumented() as (registry, _):
            probe = SamplingProbe(Tracer(), sample_rss=True)
            probe.sample_once()
            assert probe.rss_peak > 0
            snapshot = probe.snapshot()
            assert snapshot["rss"]["samples"] == 1
            assert (snapshot["rss"]["peak_bytes"]
                    >= snapshot["rss"]["last_bytes"] > 0)
            assert registry.total("probe.rss") > 0

    def test_disabled_by_default(self):
        probe = SamplingProbe(Tracer())
        probe.sample_once()
        assert probe.rss_peak == 0
        assert "rss" not in probe.snapshot()

    def test_graceful_noop_without_procfs(self, monkeypatch):
        monkeypatch.setattr("repro.obs.probe.read_rss_bytes",
                            lambda: None)
        probe = SamplingProbe(Tracer(), sample_rss=True)
        probe.sample_once()  # must not raise
        assert probe.rss_peak == 0
        assert "rss" not in probe.snapshot()

    def test_unreadable_statm_returns_none(self, monkeypatch):
        import builtins

        real_open = builtins.open

        def refusing_open(path, *args, **kwargs):
            if path == "/proc/self/statm":
                raise OSError("no procfs here")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refusing_open)
        assert read_rss_bytes() is None


class TestPhaseScope:
    def test_observes_wall_cpu_and_rss(self):
        registry = MetricsRegistry()
        with phase_scope("analyze", registry):
            sum(range(10_000))
        snapshot = registry.snapshot()
        for family in ("phase.wall_seconds", "phase.cpu_seconds"):
            series = snapshot[family]["series"]
            assert len(series) == 1
            assert series[0]["labels"] == {"phase": "analyze"}
            assert series[0]["count"] == 1
            assert series[0]["sum"] >= 0.0
        if read_rss_bytes() is not None:
            rss = snapshot["phase.rss_peak_bytes"]["series"][0]
            assert rss["max"] > 1 << 20

    def test_uses_active_registry_by_default(self):
        with obs.instrumented() as (registry, _):
            with phase_scope("collect"):
                pass
            series = registry.snapshot()["phase.wall_seconds"]["series"]
            assert series[0]["labels"]["phase"] == "collect"

    def test_noop_when_instrumentation_disabled(self):
        # The null registry swallows the observations silently.
        with phase_scope("collect"):
            pass

    def test_records_even_when_body_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with phase_scope("doomed", registry):
                raise RuntimeError("boom")
        series = registry.snapshot()["phase.wall_seconds"]["series"]
        assert series[0]["count"] == 1

    def test_buckets_match_catalogue(self):
        """phase_scope bins exactly like catalogue.preregister, so a
        phase series reads the same whichever created the family."""
        from repro.obs import catalogue

        preregistered = MetricsRegistry()
        catalogue.preregister(preregistered)
        scoped = MetricsRegistry()
        with phase_scope("analyze", scoped):
            pass

        def buckets(registry):
            return {
                s["labels"].get("phase"): sorted(s["buckets"])
                for s in registry.snapshot()["phase.wall_seconds"]["series"]
            }

        assert buckets(scoped)["analyze"] == buckets(preregistered)[None]
