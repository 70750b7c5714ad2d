"""The embedded telemetry server: endpoints, lifecycle, mid-run scrapes."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.measurement import Campaign
from repro.obs import RunJournal
from repro.obs.export import to_openmetrics
from repro.obs.health import HealthMonitor, parse_health_rule
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import (
    OPENMETRICS_CONTENT_TYPE,
    RunStatus,
    TelemetryServer,
    parse_serve_address,
)
from repro.webpki import Ecosystem, EcosystemConfig


def get(url, route):
    """(status, headers, body-bytes) of one GET, errors included."""
    try:
        with urllib.request.urlopen(url + route, timeout=5) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def get_json(url, route):
    code, _, body = get(url, route)
    return code, json.loads(body)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("scan.success", vantage="us").inc(5)
    registry.counter("scan.error", vantage="us").inc(1)
    registry.counter("scan.attempts").inc(6)
    return registry


class TestLifecycle:
    def test_ephemeral_port_and_clean_stop(self, registry):
        server = TelemetryServer(registry)
        assert not server.started
        server.start()
        try:
            assert server.started
            assert server.host == "127.0.0.1"
            assert 0 < server.port <= 65535
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.stop()
        assert not server.started
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics", timeout=1
            )

    def test_double_start_is_an_error(self, registry):
        with TelemetryServer(registry) as server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_stop_without_start_is_a_noop(self, registry):
        TelemetryServer(registry).stop()

    def test_context_manager(self, registry):
        with TelemetryServer(registry) as server:
            code, _, _ = get(server.url, "/metrics")
            assert code == 200
        assert not server.started

    def test_request_accounting_stays_off_the_registry(self, registry):
        before = registry.snapshot()
        with TelemetryServer(registry) as server:
            for _ in range(3):
                get(server.url, "/metrics")
            assert server.requests_served == 3
        assert registry.snapshot() == before


class TestMetricsEndpoint:
    def test_byte_identical_to_openmetrics_export(self, registry):
        with TelemetryServer(registry) as server:
            code, headers, body = get(server.url, "/metrics")
        assert code == 200
        assert headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
        assert body.decode("utf-8") == to_openmetrics(registry.snapshot())
        assert body.endswith(b"# EOF\n")

    def test_scrape_tracks_live_registry(self, registry):
        with TelemetryServer(registry) as server:
            _, _, first = get(server.url, "/metrics")
            registry.counter("scan.success", vantage="us").inc(10)
            _, _, second = get(server.url, "/metrics")
        assert b'scan_success_total{vantage="us"} 5' in first
        assert b'scan_success_total{vantage="us"} 15' in second

    def test_concurrent_scrapes_never_tear(self):
        """Writer hammers the registry; readers still parse every scrape.

        A torn render would show as a non-monotonic or malformed
        exposition; every body must be a complete document ending in
        ``# EOF`` whose counter values are internally consistent.
        """
        registry = MetricsRegistry()
        registry.counter("torn.check").inc()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                registry.counter("torn.check").inc()
                registry.histogram("torn.hist", buckets=(1, 2)).observe(1.5)

        thread = threading.Thread(target=writer, daemon=True)
        with TelemetryServer(registry) as server:
            thread.start()
            try:
                bodies = [get(server.url, "/metrics")[2]
                          for _ in range(20)]
            finally:
                stop.set()
                thread.join(timeout=5)
        values = []
        for body in bodies:
            text = body.decode("utf-8")
            assert text.endswith("# EOF\n")
            assert "# TYPE torn_check counter" in text
            for line in text.splitlines():
                if line.startswith("torn_check_total"):
                    values.append(float(line.split()[-1]))
        # each scrape saw a complete render; counts never go backwards
        assert values == sorted(values)

    def test_query_string_and_trailing_slash_are_tolerated(self, registry):
        with TelemetryServer(registry) as server:
            assert get(server.url, "/metrics/")[0] == 200
            assert get(server.url, "/metrics?format=om")[0] == 200

    def test_unknown_route_is_404(self, registry):
        with TelemetryServer(registry) as server:
            code, payload = get_json(server.url, "/nope")
        assert code == 404
        assert "no route" in payload["error"]


class TestHealthzEndpoint:
    def test_trivially_ok_without_monitor(self, registry):
        with TelemetryServer(registry) as server:
            code, payload = get_json(server.url, "/healthz")
        assert code == 200
        assert payload["ok"] is True and payload["checks"] == []

    def test_200_when_rules_pass(self, registry):
        monitor = HealthMonitor([parse_health_rule("scan.error_ratio<=0.5")])
        with TelemetryServer(registry, health=monitor) as server:
            code, payload = get_json(server.url, "/healthz")
        assert code == 200 and payload["ok"] is True

    def test_503_on_breach_and_recovery(self, registry):
        monitor = HealthMonitor([
            parse_health_rule("scan.error{vantage=us}<=1")
        ])
        with TelemetryServer(registry, health=monitor) as server:
            assert get_json(server.url, "/healthz")[0] == 200
            registry.counter("scan.error", vantage="us").inc(5)
            code, payload = get_json(server.url, "/healthz")
            assert code == 503
            assert payload["ok"] is False
            (failure,) = payload["failures"]
            assert failure["metric"] == "scan.error{vantage=us}"
            assert failure["value"] == 6.0


class TestProgressEndpoint:
    def test_404_without_status(self, registry):
        with TelemetryServer(registry) as server:
            assert get(server.url, "/progress")[0] == 404

    def test_reflects_run_status(self, registry):
        status = RunStatus()
        status.begin_phase("collect[us]", 100)
        status.advance(30)
        status.advance(2, ok=False)
        status.mark_degraded("au", "breaker open")
        with TelemetryServer(registry, status=status) as server:
            code, payload = get_json(server.url, "/progress")
        assert code == 200
        assert payload["phase"] == "collect[us]"
        assert (payload["done"], payload["total"]) == (32, 100)
        assert (payload["ok"], payload["errors"]) == (30, 2)
        assert payload["finished"] is False
        assert payload["degraded_vantages"] == {"au": "breaker open"}
        assert payload["rate_per_s"] >= 0.0


class TestReportEndpoint:
    def test_404_without_journal(self, registry):
        with TelemetryServer(registry) as server:
            assert get(server.url, "/report")[0] == 404

    def test_503_on_unreadable_journal(self, registry, tmp_path):
        path = tmp_path / "missing.jsonl"
        with TelemetryServer(registry, journal_path=path) as server:
            code, payload = get_json(server.url, "/report")
        assert code == 503 and "error" in payload

    def test_503_on_a_verdict_that_does_not_decode(self, registry,
                                                   tmp_path):
        """Journal damage the report builder finds is a 503 naming the
        journal and the verdict, like damage the reader finds."""
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, {"seed": 1}) as journal:
            journal.record_verdict("a.example", ("aa" * 32,), '{"leaf":3}')
        with TelemetryServer(registry, journal_path=path) as server:
            code, payload = get_json(server.url, "/report")
        assert code == 503
        assert payload["error"] == (
            f"{path}: verdict for 'a.example': report payload does not "
            f"decode (KeyError: 'order')")

    def test_503_on_a_duplicated_verdict(self, registry, tmp_path):
        """Structural damage ``report`` refuses (a verdict recorded
        twice) is a 503 too, not a report counting the chain twice."""
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, {"seed": 1}) as journal:
            journal.record_verdict("a.example", ("aa" * 32,), "{}")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(path.read_text().splitlines()[-1] + "\n")
        with TelemetryServer(registry, journal_path=path) as server:
            code, payload = get_json(server.url, "/report")
        assert code == 503
        assert payload["error"] == (
            f"{path}: corrupt journal: line 3: duplicate verdict for "
            f"'a.example' (chain already recorded)")

    def test_serves_partial_report_from_in_flight_journal(
        self, registry, tmp_path
    ):
        """A journal with scans but no analysis still renders."""
        path = tmp_path / "run.jsonl"
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=20, seed=3)
        )
        campaign = Campaign(ecosystem)
        with RunJournal.create(path, campaign.manifest()) as journal:
            collection = campaign.collect(journal=journal)
            with TelemetryServer(registry, journal_path=path) as server:
                code, payload = get_json(server.url, "/report")
                assert code == 200
                assert payload["verdicts"]["total"] == 0
                assert {v["vantage"] for v in payload["vantages"]} == {
                    "us", "au"
                }
            campaign.analyze(collection.observations, journal=journal)
        with TelemetryServer(registry, journal_path=path) as server:
            code, payload = get_json(server.url, "/report")
        assert code == 200
        assert payload["verdicts"]["total"] > 0


class TestRunStatus:
    def test_snapshot_uses_injected_clock(self):
        now = [100.0]
        status = RunStatus(clock=lambda: now[0])
        status.begin_phase("analyze", 50)
        now[0] = 110.0
        status.advance(20)
        snap = status.snapshot()
        assert snap["phase_elapsed_s"] == pytest.approx(10.0)
        assert snap["rate_per_s"] == pytest.approx(2.0)

    def test_begin_phase_resets_counts(self):
        status = RunStatus()
        status.begin_phase("collect", 10)
        status.advance(10)
        status.begin_phase("analyze", 5)
        snap = status.snapshot()
        assert (snap["done"], snap["total"]) == (0, 5)

    def test_finish(self):
        status = RunStatus()
        status.finish()
        snap = status.snapshot()
        assert snap["finished"] is True and snap["phase"] == "finished"


class TestParseServeAddress:
    @pytest.mark.parametrize("spec, expected", [
        ("8080", ("127.0.0.1", 8080)),
        ("0", ("127.0.0.1", 0)),
        ("127.0.0.1:9100", ("127.0.0.1", 9100)),
        ("0.0.0.0:9100", ("0.0.0.0", 9100)),
        ("localhost:0", ("localhost", 0)),
    ])
    def test_accepts(self, spec, expected):
        assert parse_serve_address(spec) == expected

    @pytest.mark.parametrize("bad", [
        "", "host:", ":8080", "host:port", "70000", "127.0.0.1:-1",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_serve_address(bad)


class TestMidRunScrapes:
    """The acceptance-criteria scrapes: live, mid-phase, valid."""

    def test_metrics_valid_during_analyse(self):
        """Scrapes during the analyse phase parse as OpenMetrics and
        the run's results are unaffected by being watched."""
        from repro import obs
        from repro.measurement.parallel import analyze_observations

        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=140, seed=7)
        )
        union = ecosystem.registry.union()
        base = ecosystem.observations()
        stream = base + [(d, list(c)) for d, c in base]

        baseline, _ = analyze_observations(
            stream, store=union, fetcher=ecosystem.aia_repo,
        )

        with obs.instrumented() as (registry, _):
            status = RunStatus()
            outcome = {}

            def run():
                outcome["reports"], _ = analyze_observations(
                    stream, store=union, fetcher=ecosystem.aia_repo,
                    status=status,
                )

            thread = threading.Thread(target=run)
            with TelemetryServer(registry, status=status) as server:
                thread.start()
                bodies = []
                while thread.is_alive():
                    bodies.append(get(server.url, "/metrics"))
                thread.join()
                bodies.append(get(server.url, "/metrics"))
        assert outcome["reports"] == baseline
        for code, headers, body in bodies:
            assert code == 200
            assert headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
            text = body.decode("utf-8")
            assert text.endswith("# EOF\n")
            for line in text.splitlines():
                if not line.startswith("#"):
                    float(line.rsplit(" ", 1)[1])  # every sample parses

    def test_healthz_flips_to_503_under_fault_plan(self):
        """An injected outage pushes the error ratio past its SLO."""
        from repro import obs
        from repro.net import FaultPlan
        from repro.webpki.ecosystem import VANTAGE_AU

        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=120, seed=13)
        )
        network = ecosystem.install()
        network.set_fault_plan(
            FaultPlan().vantage_outage(VANTAGE_AU, 0.0)
        )
        campaign = Campaign(ecosystem, network=network)
        monitor = HealthMonitor([
            parse_health_rule("scan.error_ratio<=0.01")
        ])
        with obs.instrumented() as (registry, _):
            codes = []
            thread = threading.Thread(target=campaign.collect)
            with TelemetryServer(registry, health=monitor) as server:
                assert get(server.url, "/healthz")[0] == 200  # pre-run
                thread.start()
                while thread.is_alive():
                    codes.append(get_json(server.url, "/healthz")[0])
                thread.join()
                final_code, final = get_json(server.url, "/healthz")
        assert final_code == 503
        assert final["ok"] is False
        (failure,) = final["failures"]
        assert failure["metric"] == "scan.error_ratio"
        assert failure["value"] > 0.01
        # the flip happened while scans were still in flight, not just
        # at the end (every au connect fails, so errors land early)
        assert 503 in codes
