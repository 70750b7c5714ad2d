"""The ZGrab2-style scanner: records, failures, rate limiting."""

import pytest

from repro.net import (
    RATE_LIMIT_BYTES_PER_SECOND,
    CertificateMessage,
    CircuitBreaker,
    RetryPolicy,
    Scanner,
    ServerFlight,
    ServerHello,
    SimulatedNetwork,
    TLS12,
    TLS13,
    TLSServerConfig,
    install_tls_server,
)

#: A Certificate message whose one PEM block has no base64 body.
MALFORMED_PEM = (
    "-----BEGIN CERTIFICATE-----\nnot base64!!\n-----END CERTIFICATE-----\n"
)


def serve_malformed_chain(payload):
    """A port-443 handler that answers with an undecodable chain."""
    return ServerFlight(ServerHello(TLS12), CertificateMessage(MALFORMED_PEM))


@pytest.fixture()
def network(hierarchy, leaf):
    net = SimulatedNetwork(seed=9)
    net.add_vantage("us", base_rtt=0.02)
    chain = hierarchy.chain_for(leaf)
    for name in ("a.example", "b.example", "c.example"):
        install_tls_server(net, name, TLSServerConfig(default_chain=chain))
    # A TLS 1.3-only server and a TLS-broken host.
    install_tls_server(
        net, "modern.example",
        TLSServerConfig(default_chain=chain, supported_versions=(TLS13,)),
    )
    net.get_or_add_host("broken.example")  # no TLS handler at all
    return net, chain


class TestScanRecords:
    def test_successful_scan(self, network):
        net, chain = network
        scanner = Scanner(net, "us")
        record = scanner.scan_domain("a.example")
        assert record.success
        assert list(record.chain) == chain
        assert record.tls_version == TLS12
        assert record.wire_bytes > 0
        assert record.error is None

    def test_unreachable_recorded_not_raised(self, network):
        net, _ = network
        record = Scanner(net, "us").scan_domain("ghost.example")
        assert not record.success
        assert record.error == "unreachable"
        assert record.chain == ()

    def test_handshake_failure_recorded(self, network):
        net, _ = network
        record = Scanner(net, "us").scan_domain(
            "modern.example", versions=(TLS12,)
        )
        assert record.error == "handshake_failed"

    def test_broken_server_counts_as_unreachable(self, network):
        net, _ = network
        record = Scanner(net, "us").scan_domain("broken.example")
        assert not record.success

    def test_scan_many(self, network):
        net, _ = network
        records = Scanner(net, "us").scan(
            ["a.example", "b.example", "ghost.example"]
        )
        assert [r.success for r in records] == [True, True, False]
        assert [r.domain for r in records] == [
            "a.example", "b.example", "ghost.example",
        ]


class TestErrorMetrics:
    """Every error counter carries the vantage that observed it."""

    def test_scan_error_labeled_per_vantage(self, network):
        from repro import obs

        net, _ = network
        net.add_vantage("au", base_rtt=0.2)
        with obs.instrumented() as (registry, _):
            Scanner(net, "us").scan_domain("ghost.example")
            Scanner(net, "au").scan_domain("ghost.example")
            Scanner(net, "au").scan_domain("modern.example")
        obs.disable()
        assert registry.value("scan.error", vantage="us",
                              kind="unreachable") == 1
        assert registry.value("scan.error", vantage="au",
                              kind="unreachable") == 1
        assert registry.value("scan.error", vantage="au",
                              kind="handshake_failed") == 1
        # per-scan failures carry the same labels
        assert registry.value("scan.failure", vantage="au",
                              kind="handshake_failed") == 1

    def test_retried_attempts_counted_individually(self, network):
        from repro import obs

        net, _ = network
        net.make_flaky("c.example", 1.0)  # every attempt fails
        with obs.instrumented() as (registry, _):
            Scanner(net, "us", retry_policy=RetryPolicy(
                retries=3, base_delay=5.0, multiplier=1.0, jitter=0.0,
            )).scan_domain("c.example")
        obs.disable()
        # four attempts (initial + 3 retries), one failed scan
        assert registry.value("scan.error", vantage="us",
                              kind="unreachable") == 4
        assert registry.value("scan.failure", vantage="us",
                              kind="unreachable") == 1

    def test_attempts_equal_errors_plus_successes(self, network):
        """The registry invariant: scan.attempts counts every handshake
        attempt, so per vantage it must equal scan.error (failed
        attempts, retried ones included) + scan.success."""
        from repro import obs

        net, _ = network
        net.make_flaky("b.example", 0.5)
        with obs.instrumented() as (registry, _):
            scanner = Scanner(net, "us", retry_policy=RetryPolicy(
                retries=2, base_delay=5.0, multiplier=1.0, jitter=0.0,
            ))
            scanner.scan(
                ["a.example", "b.example", "ghost.example",
                 "modern.example"] * 5
            )
            attempts = registry.total("scan.attempts")
            errors = registry.total("scan.error")
            successes = registry.total("scan.success")
        obs.disable()
        net.make_flaky("b.example", 0.0)
        assert attempts == errors + successes
        assert attempts > 20  # retries fired: more attempts than scans

    def test_wire_bytes_histogram_labeled_per_vantage(self, network):
        from repro import obs

        net, _ = network
        with obs.instrumented() as (registry, _):
            Scanner(net, "us").scan_domain("a.example")
        obs.disable()
        (series,) = registry.series("scan.wire_bytes")
        assert series.labels == (("vantage", "us"),)


class TestMalformedChain:
    def test_undecodable_chain_is_a_failed_record(self, network):
        from repro import obs

        net, _ = network
        net.get_or_add_host("mangled.example").bind(443,
                                                    serve_malformed_chain)
        breaker = CircuitBreaker(net.clock, "us", threshold=5)
        scanner = Scanner(
            net, "us", breaker=breaker,
            retry_policy=RetryPolicy(retries=3, base_delay=100.0),
        )
        with obs.instrumented() as (registry, _):
            scanner.scan_domain("ghost.example")
            assert breaker.consecutive_failures == 1
            before = net.clock.now()
            record = scanner.scan_domain("mangled.example")
        obs.disable()
        assert not record.success
        assert record.error == "malformed_chain"
        assert record.chain == () and record.chain_key == ()
        # deterministic, so not retried: one attempt, no backoff burned
        assert record.attempts == 1
        assert net.clock.now() - before < 100.0
        # the host answered: contact for the breaker
        assert breaker.consecutive_failures == 0
        assert registry.value("scan.error", vantage="us",
                              kind="malformed_chain") == 1
        assert registry.value("scan.failure", vantage="us",
                              kind="malformed_chain") == 1


class TestVersionComparison:
    def test_scan_both_versions(self, network):
        net, _ = network
        results = Scanner(net, "us").scan_both_versions(["a.example"])
        tls12, tls13 = results["a.example"]
        assert tls12.tls_version == TLS12
        assert tls13.tls_version == TLS13
        assert tls12.chain == tls13.chain


class TestRateLimit:
    def test_scan_respects_bandwidth_cap(self, network):
        net, _ = network
        rate = 50_000  # tight cap to force waiting
        scanner = Scanner(net, "us", rate_limit=rate)
        scanner.scan(["a.example", "b.example", "c.example"] * 10)
        observed = scanner.bucket.observed_rate()
        # Steady-state rate stays under cap plus the one-burst allowance.
        assert observed <= rate + rate / max(net.clock.now(), 1e-9)

    def test_default_cap_is_500kb(self, network):
        net, _ = network
        scanner = Scanner(net, "us")
        assert scanner.bucket.rate == RATE_LIMIT_BYTES_PER_SECOND


class TestFlakinessAndRetries:
    def test_flaky_host_sometimes_fails_without_retries(self, network):
        net, _ = network
        net.make_flaky("a.example", 0.6)
        scanner = Scanner(net, "us")
        outcomes = [scanner.scan_domain("a.example").success
                    for _ in range(40)]
        assert any(outcomes) and not all(outcomes)
        net.make_flaky("a.example", 0.0)

    def test_retries_recover_transient_failures(self, network):
        net, _ = network
        net.make_flaky("b.example", 0.5)
        patient = Scanner(net, "us", retry_policy=RetryPolicy(
            retries=6, base_delay=5.0, multiplier=1.0, jitter=0.0,
        ))
        successes = sum(
            patient.scan_domain("b.example").success for _ in range(25)
        )
        assert successes >= 23  # P(7 straight failures) ~ 0.8%
        net.make_flaky("b.example", 0.0)

    def test_retry_cooldown_advances_clock(self, network):
        net, _ = network
        net.make_flaky("c.example", 1.0)  # always fails -> all retries used
        scanner = Scanner(net, "us", retry_policy=RetryPolicy(
            retries=3, base_delay=10.0, multiplier=1.0, jitter=0.0,
        ))
        before = net.clock.now()
        record = scanner.scan_domain("c.example")
        assert not record.success
        assert net.clock.now() - before >= 30.0
        net.make_flaky("c.example", 0.0)

    def test_handshake_failures_not_retried(self, network):
        net, _ = network
        scanner = Scanner(net, "us", retry_policy=RetryPolicy(
            retries=5, base_delay=100.0, multiplier=1.0, jitter=0.0,
        ))
        before = net.clock.now()
        record = scanner.scan_domain("modern.example", versions=(TLS12,))
        assert record.error == "handshake_failed"
        assert net.clock.now() - before < 100.0  # no cooldown burned

    def test_scan_both_versions_under_flakiness(self, network):
        # Deterministic seed: with enough retries both version scans
        # recover and the comparison sees the identical chain pair.
        net, _ = network
        net.make_flaky("a.example", 0.4)
        scanner = Scanner(net, "us", retry_policy=RetryPolicy(
            retries=8, base_delay=5.0, multiplier=1.0, jitter=0.0,
        ))
        results = scanner.scan_both_versions(["a.example"])
        tls12, tls13 = results["a.example"]
        assert tls12.success and tls13.success
        assert tls12.chain == tls13.chain
        assert tls12.tls_version == TLS12
        assert tls13.tls_version == TLS13
        net.make_flaky("a.example", 0.0)

    def test_negative_retries_rejected(self, network):
        net, _ = network
        import pytest as _pytest

        with _pytest.raises(ValueError):
            Scanner(net, "us", retry_policy=RetryPolicy(
                retries=-1, base_delay=5.0, multiplier=1.0, jitter=0.0,
            ))

    def test_flaky_probability_validated(self, network):
        net, _ = network
        import pytest as _pytest

        with _pytest.raises(ValueError):
            net.make_flaky("a.example", 1.5)
