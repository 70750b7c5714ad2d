"""Span nesting, timing tree, Chrome-trace export, and the phase
primitive with its RSS reader."""

import json
import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer, phase_scope, read_rss_bytes


class FakeClock:
    """Deterministic clock: each call returns the next scripted time."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestNesting:
    def test_children_attach_to_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner.a", "inner.b"]
        assert roots[0].children[0].children == []

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots()] == ["first", "second"]

    def test_durations(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):      # start=1
            with tracer.span("inner"):  # start=2, end=3
                pass
        outer = tracer.roots()[0]       # end=4
        inner = outer.children[0]
        assert inner.duration == 1.0
        assert outer.duration == 3.0

    def test_attrs_recorded(self):
        tracer = Tracer()
        with tracer.span("scan.handshake", domain="a.example") as span:
            assert span.attrs == {"domain": "a.example"}

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name):
            with tracer.span(name):
                barrier.wait(timeout=5)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # both spans are roots, not nested inside each other
        assert sorted(r.name for r in tracer.roots()) == ["t0", "t1"]


class TestReadouts:
    def test_tree_rendering(self):
        tracer = Tracer()
        with tracer.span("outer", n=1):
            with tracer.span("inner"):
                pass
        text = tracer.tree()
        assert "outer" in text and "  inner" in text and "n=1" in text


class TestChromeExport:
    def test_event_shape_round_trip(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", domain="a.example"):
            with tracer.span("inner"):
                pass
        events = json.loads(tracer.to_json())
        assert len(events) == 2
        for event in events:
            assert set(event) == {"name", "ph", "ts", "dur", "pid", "tid",
                                  "args"}
            assert event["ph"] == "X"
            assert event["dur"] > 0
        outer = next(e for e in events if e["name"] == "outer")
        inner = next(e for e in events if e["name"] == "inner")
        assert outer["args"] == {"domain": "a.example"}
        # inner is contained within outer on the timeline
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_events_sorted_by_start(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        events = tracer.to_chrome_trace()
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        context = tracer.span("never.closed")
        context.__enter__()
        assert tracer.to_chrome_trace() == []


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", key="value") as span:
            assert span is None
        assert NULL_TRACER.roots() == []
        assert NULL_TRACER.to_json() == "[]"


class TestReadRssBytes:
    def test_read_rss_bytes_on_linux(self):
        rss = read_rss_bytes()
        if rss is None:
            pytest.skip("no /proc/self/statm on this platform")
        assert isinstance(rss, int)
        assert rss > 1 << 20  # a Python process is at least a MiB

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

    def test_opens_a_span_named_after_the_phase(self):
        """One name per region: the span the scope opens on the active
        tracer is the phase label, and carries the scope's attrs."""
        with obs.instrumented() as (registry, tracer):
            with phase_scope("collect.shard.3", shard=3):
                with tracer.span("campaign.scan", vantage="us"):
                    pass
        root, = tracer.roots()
        assert (root.name, root.attrs) == ("collect.shard.3", {"shard": 3})
        assert [child.name for child in root.children] == ["campaign.scan"]
        series, = registry.snapshot()["phase.wall_seconds"]["series"]
        assert series["labels"] == {"phase": root.name}

    def test_noop_when_instrumentation_disabled(self):
        # The null registry and tracer swallow the scope silently.
        with phase_scope("collect"):
            pass
        assert obs.get_tracer().roots() == []

    def test_reads_rss_only_for_a_live_registry(self, monkeypatch):
        """An uninstrumented phase reads no RSS (nor clock): nothing
        would keep it.  A live one reads RSS at entry and at exit."""
        from repro.obs import trace

        reads = []
        monkeypatch.setattr(trace, "read_rss_bytes",
                            lambda: reads.append(1) or 1 << 20)
        with phase_scope("differential"):
            pass
        assert reads == []
        with obs.instrumented() as (registry, _):
            with phase_scope("differential"):
                pass
        assert len(reads) == 2
        series, = registry.snapshot()["phase.rss_peak_bytes"]["series"]
        assert series["max"] == 1 << 20

    def test_records_even_when_body_raises(self):
        registry = MetricsRegistry()
        with obs.instrumented(registry) as (_, tracer):
            with pytest.raises(RuntimeError):
                with phase_scope("doomed"):
                    raise RuntimeError("boom")
        series = registry.snapshot()["phase.wall_seconds"]["series"]
        assert series[0]["count"] == 1
        root, = tracer.roots()
        assert root.name == "doomed" and root.end is not None

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
